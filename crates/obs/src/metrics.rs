//! Metrics primitives shared by every tier: the one latency-bucket
//! layout, the lock-free [`Histogram`] built on it with its quantile
//! estimator, and [`Exposition`], the one Prometheus text writer.
//!
//! The bucket layout is log₂ in microseconds: bucket 0 holds
//! sub-microsecond samples, bucket `b` in `1..=29` holds `[2^(b-1), 2^b)`
//! µs, and bucket 30 absorbs everything from `2^29` µs (≈9 minutes) up.
//! The serving engine's per-stage histograms, the wire tier's assembly
//! histogram and the rolling [`window`](crate::window)s all bucket through
//! [`latency_bucket`].
//!
//! [`Exposition`] writes text format 0.0.4 by hand against the
//! exposition-format spec, so the export surface has zero dependencies.
//! Histogram bucket rows carry OpenMetrics exemplars.

use crate::trace::format_trace_id;
use crate::window::WindowSnapshot;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latency bucket count.
pub const LATENCY_BUCKETS: usize = 31;

/// Maps a duration in microseconds to its log₂ latency bucket.
pub fn latency_bucket(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }
}

/// Upper bound of a latency bucket (its exposition `le`), in microseconds.
pub fn latency_bucket_le_us(b: usize) -> u64 {
    1u64 << b
}

/// A fixed-bucket, lock-free latency histogram (microsecond resolution,
/// [`latency_bucket`] layout). Recording is wait-free: two relaxed
/// fetch-adds, no lock; the sample count is the buckets' sum.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[latency_bucket(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A snapshot with estimated quantiles: each reports the upper bound
    /// of the bucket holding its rank, which is plenty for p50/p95/p99.
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
                    return latency_bucket_le_us(b) as f64 / 1e3;
                }
            }
            latency_bucket_le_us(LATENCY_BUCKETS - 1) as f64 / 1e3
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

/// `labels` (`k="v",k2="v2"`, possibly empty) extended by `key="value"`.
pub fn label(labels: &str, key: &str, value: impl Display) -> String {
    if labels.is_empty() {
        format!("{key}=\"{value}\"")
    } else {
        format!("{labels},{key}=\"{value}\"")
    }
}

/// One exposition page. Each family's `# HELP` / `# TYPE` header is
/// written once, where the family is first started; samples follow as
/// `name{labels} value` rows. Values print with `Display`, so integral
/// floats carry no `.0` and no value uses an exponent.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    families: Vec<&'static str>,
}

impl Exposition {
    /// Starts family `name` of `kind` (`counter`, `gauge`, `summary`,
    /// `histogram`): writes its header unless this page already has it.
    pub fn family(&mut self, name: &'static str, help: &str, kind: &str) -> &mut Self {
        if !self.families.contains(&name) {
            self.families.push(name);
            let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        }
        self
    }

    /// A counter family with one unlabelled sample.
    pub fn counter(&mut self, name: &'static str, help: &str, value: u64) {
        self.family(name, help, "counter").sample(name, "", value);
    }

    /// One `name{labels} value` row; `labels` may be empty.
    pub fn sample(&mut self, name: &str, labels: &str, value: impl Display) -> &mut Self {
        self.row(name, "", labels, value);
        self
    }

    fn row(&mut self, name: &str, suffix: &str, labels: &str, value: impl Display) {
        let _ = if labels.is_empty() {
            writeln!(self.out, "{name}{suffix} {value}")
        } else {
            writeln!(self.out, "{name}{suffix}{{{labels}}} {value}")
        };
    }

    /// The rows of one summary: p50/p95/p99 (`quantile` label), `_mean`
    /// and `_count`.
    pub fn summary(&mut self, name: &str, labels: &str, h: &HistogramSnapshot) {
        for (q, v) in [("0.5", h.p50_ms), ("0.95", h.p95_ms), ("0.99", h.p99_ms)] {
            self.row(name, "", &label(labels, "quantile", q), v);
        }
        self.row(name, "_mean", labels, h.mean_ms);
        self.row(name, "_count", labels, h.count);
    }

    /// The rows of one histogram: a cumulative `_bucket` row (`le` in µs)
    /// per non-empty bucket, each with its exemplar as an OpenMetrics
    /// `# {trace_id="…",sql="…"} value` suffix, then `+Inf`, `_count` and
    /// `_sum`. Skipping empty buckets keeps the page bounded.
    pub fn histogram(&mut self, name: &str, labels: &str, w: &WindowSnapshot) {
        let mut cumulative = 0u64;
        for (le, n, exemplar) in w.buckets() {
            cumulative += n;
            let _ = write!(
                self.out,
                "{name}_bucket{{{}}} {cumulative}",
                label(labels, "le", le)
            );
            if let Some(ex) = exemplar {
                let _ = write!(
                    self.out,
                    " # {{trace_id=\"{}\",sql=\"{:016x}\"}} {}",
                    format_trace_id(ex.trace_id),
                    ex.sql_digest,
                    ex.value_us
                );
            }
            self.out.push('\n');
        }
        self.row(name, "_bucket", &label(labels, "le", "+Inf"), w.count);
        self.row(name, "_count", labels, w.count);
        self.row(name, "_sum", labels, w.sum_us);
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        assert_eq!(latency_bucket(2), 2);
        assert_eq!(latency_bucket(3), 2);
        assert_eq!(latency_bucket(4), 3);
        assert_eq!(latency_bucket(1 << 40), LATENCY_BUCKETS - 1);
    }

    /// Pins every one of the 31 bucket edges: bucket 0 is sub-µs, bucket
    /// `b` in `1..=29` is exactly `[2^(b-1), 2^b)` µs, and the overflow
    /// bucket starts at `2^29` µs (≈9 minutes) and reaches `u64::MAX`.
    #[test]
    fn bucket_edges_are_pinned_with_overflow() {
        assert_eq!(
            latency_bucket(0),
            0,
            "bucket 0 holds sub-microsecond samples"
        );
        for b in 1..=(LATENCY_BUCKETS - 2) {
            let lo = 1u64 << (b - 1);
            assert_eq!(latency_bucket(lo), b, "lower edge of bucket {b}");
            assert_eq!(
                latency_bucket(lo * 2 - 1),
                b,
                "last value inside bucket {b}"
            );
            assert_eq!(latency_bucket(lo - 1), b - 1, "value below bucket {b}");
            assert_eq!(latency_bucket_le_us(b), lo * 2, "upper bound of bucket {b}");
        }
        let overflow = LATENCY_BUCKETS - 1;
        let overflow_lo = 1u64 << (overflow - 1);
        assert_eq!(
            latency_bucket(overflow_lo),
            overflow,
            "overflow starts at 2^29 µs"
        );
        assert_eq!(latency_bucket(overflow_lo - 1), overflow - 1);
        assert_eq!(
            latency_bucket(u64::MAX),
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
    fn a_family_header_is_written_once_per_page() {
        let mut page = Exposition::default();
        for shard in ["0", "1"] {
            page.family("x_total", "Things.", "counter").sample(
                "x_total",
                &label("", "shard", shard),
                3,
            );
        }
        page.counter("y_total", "Others.", 4);
        assert_eq!(
            page.finish(),
            "# HELP x_total Things.\n# TYPE x_total counter\n\
             x_total{shard=\"0\"} 3\nx_total{shard=\"1\"} 3\n\
             # HELP y_total Others.\n# TYPE y_total counter\ny_total 4\n"
        );
    }
}
