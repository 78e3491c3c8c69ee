//! Rolling time-windowed telemetry: a per-stage ring of fixed-width time
//! buckets, each holding a request rate, an error rate, and a log₂-µs
//! latency histogram whose buckets carry **exemplars** — the trace id and
//! SQL digest of a recent request that landed there — so an operator can
//! jump from "p99 spiked" straight to one concrete trace.
//!
//! Time never comes from a wall clock inside this module: every mutating
//! or reading call takes `now_ms` (milliseconds since an arbitrary epoch),
//! so bucket rotation, expiry, and exemplar replacement are unit-testable
//! without sleeps. [`WindowSet`] wraps a set of labeled windows behind a
//! real monotonic clock for production use.
//!
//! The latency buckets are the one layout of [`metrics`](crate::metrics)
//! ([`latency_bucket`]), the same the serving engine's histograms use.

use crate::metrics::{latency_bucket, latency_bucket_le_us, LATENCY_BUCKETS};
use std::sync::Mutex;
use std::time::Instant;

/// Window shape: `buckets` time buckets of `bucket_ms` each; the covered
/// span is their product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one time bucket in milliseconds.
    pub bucket_ms: u64,
    /// Number of time buckets in the ring.
    pub buckets: usize,
}

impl Default for WindowConfig {
    /// Sixty one-second buckets: a one-minute rolling window.
    fn default() -> Self {
        WindowConfig {
            bucket_ms: 1_000,
            buckets: 60,
        }
    }
}

impl WindowConfig {
    /// The covered span in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.bucket_ms * self.buckets as u64
    }
}

/// One concrete request pinned to a histogram bucket: enough to go from
/// an aggregate ("requests land in the 1–2ms bucket") to a specific trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace id of the exemplar request.
    pub trace_id: u64,
    /// FNV-1a digest of the request's chosen SQL (0 when no SQL was
    /// selected, e.g. an errored request).
    pub sql_digest: u64,
    /// The exemplar's own latency in microseconds.
    pub value_us: u64,
}

/// One time bucket: counts plus a latency histogram with per-bucket
/// exemplars.
#[derive(Debug, Clone)]
struct Bucket {
    /// Aligned start time of the interval this bucket currently holds;
    /// `u64::MAX` marks never-used.
    epoch_ms: u64,
    count: u64,
    errors: u64,
    sum_us: u64,
    hist: [u64; LATENCY_BUCKETS],
    exemplars: [Option<Exemplar>; LATENCY_BUCKETS],
}

impl Bucket {
    fn empty() -> Self {
        Bucket {
            epoch_ms: u64::MAX,
            count: 0,
            errors: 0,
            sum_us: 0,
            hist: [0; LATENCY_BUCKETS],
            exemplars: [None; LATENCY_BUCKETS],
        }
    }

    fn reset(&mut self, epoch_ms: u64) {
        *self = Bucket::empty();
        self.epoch_ms = epoch_ms;
    }
}

/// A merged view over the live time buckets of one window.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// The covered span in milliseconds (`bucket_ms × buckets`).
    pub window_ms: u64,
    /// Samples inside the window.
    pub count: u64,
    /// Errored samples inside the window.
    pub errors: u64,
    /// Sum of sample latencies (µs) inside the window.
    pub sum_us: u64,
    /// Samples per second over the covered span.
    pub rate_per_sec: f64,
    /// Errors over samples, in `[0, 1]` (0 when empty).
    pub error_rate: f64,
    /// Merged latency histogram (same layout as [`latency_bucket`]).
    pub hist: [u64; LATENCY_BUCKETS],
    /// Per-latency-bucket exemplar: the most recently recorded request
    /// that landed in that bucket, newest time bucket winning.
    pub exemplars: [Option<Exemplar>; LATENCY_BUCKETS],
}

impl WindowSnapshot {
    /// An all-zero snapshot covering `window_ms`.
    pub fn empty(window_ms: u64) -> Self {
        WindowSnapshot {
            window_ms,
            count: 0,
            errors: 0,
            sum_us: 0,
            rate_per_sec: 0.0,
            error_rate: 0.0,
            hist: [0; LATENCY_BUCKETS],
            exemplars: [None; LATENCY_BUCKETS],
        }
    }

    /// The non-empty latency buckets, lowest first: each one's upper bound
    /// (µs), its sample count, and its exemplar.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, Option<&Exemplar>)> {
        self.hist
            .iter()
            .zip(&self.exemplars)
            .enumerate()
            .filter(|(_, (n, _))| **n > 0)
            .map(|(b, (n, ex))| (latency_bucket_le_us(b), *n, ex.as_ref()))
    }
}

/// A rolling window over one stream of samples. All methods take `now_ms`
/// explicitly; see [`WindowSet`] for the real-clock wrapper.
#[derive(Debug)]
pub struct Window {
    cfg: WindowConfig,
    ring: Mutex<Vec<Bucket>>,
}

impl Window {
    /// An empty window with the given shape (`buckets` floored at 1).
    pub fn new(mut cfg: WindowConfig) -> Self {
        cfg.bucket_ms = cfg.bucket_ms.max(1);
        cfg.buckets = cfg.buckets.max(1);
        Window {
            cfg,
            ring: Mutex::new(vec![Bucket::empty(); cfg.buckets]),
        }
    }

    /// The window's shape.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Records one sample observed at `now_ms`. A stale ring slot is
    /// lazily reset to the current interval before recording; an exemplar,
    /// when given, replaces whatever its latency bucket held (latest in
    /// the time bucket wins).
    pub fn record_at(&self, now_ms: u64, dur_us: u64, error: bool, exemplar: Option<Exemplar>) {
        let aligned = now_ms / self.cfg.bucket_ms * self.cfg.bucket_ms;
        let slot = (now_ms / self.cfg.bucket_ms) as usize % self.cfg.buckets;
        let mut ring = self.lock();
        let bucket = &mut ring[slot];
        if bucket.epoch_ms != aligned {
            bucket.reset(aligned);
        }
        bucket.count += 1;
        bucket.errors += u64::from(error);
        bucket.sum_us += dur_us;
        let lb = latency_bucket(dur_us);
        bucket.hist[lb] += 1;
        if exemplar.is_some() {
            bucket.exemplars[lb] = exemplar;
        }
    }

    /// Merges the time buckets still inside the window ending at `now_ms`.
    /// Buckets whose interval has rotated out (or that were never written)
    /// are excluded without being touched — reading never mutates the ring.
    pub fn snapshot_at(&self, now_ms: u64) -> WindowSnapshot {
        let window_ms = self.cfg.window_ms();
        let aligned = now_ms / self.cfg.bucket_ms * self.cfg.bucket_ms;
        let oldest = (aligned + self.cfg.bucket_ms).saturating_sub(window_ms);
        let mut snap = WindowSnapshot::empty(window_ms);
        let ring = self.lock();
        // Walk oldest-to-newest interval so a newer time bucket's exemplar
        // overwrites an older one's for the same latency bucket.
        let mut live: Vec<&Bucket> = ring
            .iter()
            .filter(|b| b.epoch_ms != u64::MAX && b.epoch_ms >= oldest && b.epoch_ms <= aligned)
            .collect();
        live.sort_by_key(|b| b.epoch_ms);
        for bucket in live {
            snap.count += bucket.count;
            snap.errors += bucket.errors;
            snap.sum_us += bucket.sum_us;
            for (lb, n) in bucket.hist.iter().enumerate() {
                snap.hist[lb] += n;
                if bucket.exemplars[lb].is_some() {
                    snap.exemplars[lb] = bucket.exemplars[lb];
                }
            }
        }
        snap.rate_per_sec = snap.count as f64 / (window_ms as f64 / 1e3);
        snap.error_rate = if snap.count == 0 {
            0.0
        } else {
            snap.errors as f64 / snap.count as f64
        };
        snap
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Bucket>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A labeled set of rolling windows (one per pipeline stage) behind a real
/// monotonic clock. This is what the serving engine holds; tests that need
/// a mock clock use [`Window`] directly.
pub struct WindowSet {
    epoch: Instant,
    labels: Vec<&'static str>,
    windows: Vec<Window>,
}

impl WindowSet {
    /// One window per label, all sharing `cfg`.
    pub fn new(labels: &[&'static str], cfg: WindowConfig) -> Self {
        WindowSet {
            epoch: Instant::now(),
            labels: labels.to_vec(),
            windows: labels.iter().map(|_| Window::new(cfg)).collect(),
        }
    }

    /// The stage labels, in construction order.
    pub fn labels(&self) -> &[&'static str] {
        &self.labels
    }

    /// Milliseconds since this set's epoch (its "now").
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Records a sample into the window at `index` (construction order) at
    /// the current time.
    pub fn record(&self, index: usize, dur_us: u64, error: bool, exemplar: Option<Exemplar>) {
        if let Some(w) = self.windows.get(index) {
            w.record_at(self.now_ms(), dur_us, error, exemplar);
        }
    }

    /// Snapshots every window at the current time, labels attached.
    pub fn snapshot(&self) -> Vec<(&'static str, WindowSnapshot)> {
        let now = self.now_ms();
        self.labels
            .iter()
            .zip(&self.windows)
            .map(|(label, w)| (*label, w.snapshot_at(now)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bucket_ms: u64, buckets: usize) -> WindowConfig {
        WindowConfig { bucket_ms, buckets }
    }

    fn ex(trace_id: u64, value_us: u64) -> Option<Exemplar> {
        Some(Exemplar {
            trace_id,
            sql_digest: trace_id.wrapping_mul(31),
            value_us,
        })
    }

    /// The window histogram uses the shared latency layout: every edge lands
    /// in the bucket `latency_bucket` names, and the overflow bucket is
    /// unbounded above.
    #[test]
    fn latency_bucket_edges_are_pinned() {
        assert_eq!(latency_bucket(0), 0, "bucket 0 holds sub-µs samples");
        for b in 1..=(LATENCY_BUCKETS - 2) {
            let lo = 1u64 << (b - 1);
            assert_eq!(latency_bucket(lo), b, "lower edge of bucket {b}");
            assert_eq!(latency_bucket(lo * 2 - 1), b, "last value in bucket {b}");
        }
        let overflow = LATENCY_BUCKETS - 1;
        assert_eq!(latency_bucket(1 << (overflow - 1)), overflow);
        assert_eq!(latency_bucket(u64::MAX), overflow);
        assert_eq!(latency_bucket_le_us(3), 8);

        let w = Window::new(cfg(1_000, 4));
        w.record_at(0, 0, false, None);
        w.record_at(0, 1, false, None);
        w.record_at(0, (1 << (overflow - 1)) - 1, false, None);
        w.record_at(0, 1 << 40, false, None);
        let s = w.snapshot_at(0);
        assert_eq!(s.hist[0], 1);
        assert_eq!(s.hist[1], 1);
        assert_eq!(s.hist[overflow - 1], 1);
        assert_eq!(s.hist[overflow], 1);
    }

    #[test]
    fn samples_accumulate_within_the_window() {
        let w = Window::new(cfg(1_000, 4));
        w.record_at(100, 500, false, None);
        w.record_at(1_100, 1_500, true, None);
        w.record_at(3_900, 10, false, None);
        let s = w.snapshot_at(3_950);
        assert_eq!(s.count, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.sum_us, 2_010);
        assert_eq!(s.window_ms, 4_000);
        assert!((s.rate_per_sec - 0.75).abs() < 1e-9);
        assert!((s.error_rate - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.hist[latency_bucket(500)], 1);
        assert_eq!(s.hist[latency_bucket(1_500)], 1);
        assert_eq!(s.hist[latency_bucket(10)], 1);
    }

    #[test]
    fn rotation_expires_old_buckets_without_sleeping() {
        let w = Window::new(cfg(1_000, 3));
        w.record_at(0, 100, false, None);
        w.record_at(1_000, 100, false, None);
        // Both buckets visible inside the 3s window.
        assert_eq!(w.snapshot_at(2_000).count, 2);
        // At t=3s the t=0 bucket has aged out of [1_000, 3_999].
        assert_eq!(w.snapshot_at(3_000).count, 1);
        // At t=4s nothing recorded in the last 3 intervals remains.
        assert_eq!(w.snapshot_at(4_000).count, 0);
        // The ring slot that held t=0 is lazily reclaimed by a write at
        // t=3s (same slot index, new epoch), not merged with stale data.
        w.record_at(3_000, 7, false, None);
        let s = w.snapshot_at(3_000);
        assert_eq!(s.count, 2, "t=1s and t=3s buckets");
        assert_eq!(s.sum_us, 107);
    }

    #[test]
    fn snapshot_never_resurrects_a_wrapped_slot() {
        let w = Window::new(cfg(100, 2));
        w.record_at(0, 1, false, None);
        // Ten intervals later the slot still holds epoch 0, but the
        // snapshot's liveness check excludes it.
        assert_eq!(w.snapshot_at(1_000).count, 0);
        // A write to the wrapped slot resets it first.
        w.record_at(1_000, 2, false, None);
        let s = w.snapshot_at(1_000);
        assert_eq!((s.count, s.sum_us), (1, 2));
    }

    #[test]
    fn exemplar_replacement_is_latest_in_bucket_wins() {
        let w = Window::new(cfg(1_000, 4));
        // Same time bucket, same latency bucket ([1024, 2048) µs): the
        // later record wins.
        w.record_at(100, 1_100, false, ex(1, 1_100));
        w.record_at(200, 1_500, false, ex(2, 1_500));
        let s = w.snapshot_at(500);
        let lb = latency_bucket(1_100);
        assert_eq!(latency_bucket(1_500), lb, "same latency bucket");
        assert_eq!(s.exemplars[lb].unwrap().trace_id, 2);
        assert_eq!(s.hist[lb], 2, "both samples still counted");

        // A later time bucket's exemplar shadows an earlier one's in the
        // merged snapshot.
        w.record_at(1_300, 1_050, false, ex(3, 1_050));
        let s = w.snapshot_at(1_400);
        assert_eq!(s.exemplars[lb].unwrap().trace_id, 3);

        // A sample without an exemplar never clears one.
        w.record_at(1_400, 1_060, false, None);
        let s = w.snapshot_at(1_500);
        assert_eq!(s.exemplars[lb].unwrap().trace_id, 3);

        // Different latency buckets keep independent exemplars.
        w.record_at(1_500, 5, false, ex(9, 5));
        let s = w.snapshot_at(1_600);
        assert_eq!(s.exemplars[latency_bucket(5)].unwrap().trace_id, 9);
        assert_eq!(s.exemplars[lb].unwrap().trace_id, 3);
    }

    #[test]
    fn exemplars_age_out_with_their_time_bucket() {
        let w = Window::new(cfg(1_000, 2));
        w.record_at(0, 1_000, false, ex(7, 1_000));
        let lb = latency_bucket(1_000);
        assert_eq!(w.snapshot_at(500).exemplars[lb].unwrap().trace_id, 7);
        assert!(
            w.snapshot_at(2_500).exemplars[lb].is_none(),
            "exemplar gone once its bucket leaves the window"
        );
    }

    #[test]
    fn window_set_labels_and_records_by_index() {
        let set = WindowSet::new(&["total", "execute"], cfg(1_000, 60));
        assert_eq!(set.labels(), &["total", "execute"]);
        set.record(0, 800, false, ex(1, 800));
        set.record(1, 300, true, None);
        set.record(99, 1, false, None); // out of range: ignored
        let snap = set.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "total");
        assert_eq!(snap[0].1.count, 1);
        assert_eq!(snap[1].1.errors, 1);
        assert_eq!(
            snap[0].1.exemplars[latency_bucket(800)].unwrap().trace_id,
            1
        );
    }
}
