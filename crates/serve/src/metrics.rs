//! Lock-free serving observability: atomic counters plus fixed-bucket
//! latency histograms per pipeline stage.
//!
//! Recording is wait-free (one relaxed fetch-add per counter, two per
//! histogram sample); nothing on the request path takes a lock. Snapshots
//! are serializable ([`MetricsSnapshot`]) and quantiles are estimated from
//! the log₂ bucket boundaries, which is plenty for p50/p95/p99 reporting.

use cyclesql_core::StageTimings;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket count: bucket 0 covers sub-microsecond samples, bucket
/// `b` in `1..=29` covers `[2^(b-1), 2^b)` microseconds, and the last
/// bucket absorbs everything from `2^29` µs (≈9 minutes) up.
pub const HISTOGRAM_BUCKETS: usize = 31;

/// A fixed-bucket, lock-free latency histogram (microsecond resolution,
/// log₂ bucket widths).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper bound of a bucket, in microseconds.
fn bucket_upper_us(b: usize) -> u64 {
    1u64 << b
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A serializable snapshot with estimated quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let sum_us = self.sum_us.load(Ordering::Relaxed);
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (b, c) in counts.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return bucket_upper_us(b) as f64 / 1e3;
                }
            }
            bucket_upper_us(HISTOGRAM_BUCKETS - 1) as f64 / 1e3
        };
        HistogramSnapshot {
            count,
            mean_ms: if count == 0 {
                0.0
            } else {
                sum_us as f64 / count as f64 / 1e3
            },
            p50_ms: quantile(0.50),
            p95_ms: quantile(0.95),
            p99_ms: quantile(0.99),
        }
    }
}

/// Snapshot of one histogram: count, mean, and bucket-resolution quantiles
/// (each quantile reports its bucket's upper bound).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in milliseconds (exact, from the running sum).
    pub mean_ms: f64,
    /// Median estimate (ms).
    pub p50_ms: f64,
    /// 95th-percentile estimate (ms).
    pub p95_ms: f64,
    /// 99th-percentile estimate (ms).
    pub p99_ms: f64,
}

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
    /// Requests whose pipeline panicked (completed with
    /// `ServeError::Internal`; the worker survived).
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
    /// Requests whose pipeline panicked.
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
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1 << 40), HISTOGRAM_BUCKETS - 1);
    }

    /// Pins every one of the 31 bucket edges: bucket 0 is sub-µs, bucket
    /// `b` in `1..=29` is exactly `[2^(b-1), 2^b)` µs, and the overflow
    /// bucket starts at `2^29` µs (≈9 minutes) and reaches `u64::MAX`.
    #[test]
    fn bucket_edges_are_pinned_with_overflow() {
        assert_eq!(bucket_index(0), 0, "bucket 0 holds sub-microsecond samples");
        for b in 1..=(HISTOGRAM_BUCKETS - 2) {
            let lo = 1u64 << (b - 1);
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index(lo * 2 - 1), b, "last value inside bucket {b}");
            assert_eq!(bucket_index(lo - 1), b - 1, "value below bucket {b}");
        }
        let overflow = HISTOGRAM_BUCKETS - 1;
        let overflow_lo = 1u64 << (overflow - 1);
        assert_eq!(
            bucket_index(overflow_lo),
            overflow,
            "overflow starts at 2^29 µs"
        );
        assert_eq!(bucket_index(overflow_lo - 1), overflow - 1);
        assert_eq!(
            bucket_index(u64::MAX),
            overflow,
            "overflow is unbounded above"
        );

        // Recording routes through the same mapping.
        let h = Histogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(overflow_lo - 1));
        h.record(Duration::from_secs(86_400));
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[1].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[overflow - 1].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[overflow].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn quantiles_bound_recorded_samples() {
        let h = Histogram::default();
        for ms in [1u64, 2, 3, 4, 100] {
            h.record(Duration::from_millis(ms));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        // p50 falls in the bucket holding 3–4 ms; its upper bound is 4.096.
        assert!(s.p50_ms >= 3.0 && s.p50_ms <= 8.2, "{}", s.p50_ms);
        // p99 lands in the 100 ms sample's bucket.
        assert!(s.p99_ms >= 100.0, "{}", s.p99_ms);
        assert!((s.mean_ms - 22.0).abs() < 0.5, "{}", s.mean_ms);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..500u64 {
                        h.record(Duration::from_micros(i));
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 8 * 500);
    }

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
