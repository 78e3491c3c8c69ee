//! The concurrent serving engine: a fixed worker pool fed by a bounded
//! admission queue, running the full CycleSQL pipeline (translate → execute
//! → provenance → explain → verify) per request.
//!
//! Admission backpressure has two policies: [`AdmissionPolicy::Block`]
//! parks the submitting thread until the queue has room (closed-loop
//! clients), [`AdmissionPolicy::Shed`] rejects immediately with
//! [`ServeError::Overloaded`] (open-loop clients that must bound tail
//! latency). Per-request deadlines abandon the candidate loop cleanly
//! between pipeline stages. [`ServiceEngine::shutdown`] drains every
//! admitted request before the workers exit.
//!
//! Every request completes through one path: the closure handed to
//! [`ServiceEngine::submit_with`] receives its outcome exactly once, on the
//! worker that served it or, for a refusal, on the submitting thread.
//! [`Ticket`]s are that closure filling a slot the caller waits on. A
//! panic in the pipeline completes its request with
//! [`ServeError::Internal`]; the worker survives.

use crate::catalog::Catalog;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::plan_cache::ResultCache;
use crate::requests::{sql_digest, RequestLog, RequestSummary};
use cyclesql_benchgen::BenchmarkItem;
use cyclesql_core::{CachedRun, CycleSql, LoopVerifier, RunCache, RunControls, StageTimings};
use cyclesql_explain::Explanation;
use cyclesql_models::{PreparedGold, SimStats, SimulatedModel, TranslationRequest};
use cyclesql_obs::{
    Exemplar, SharedSpan, Span, SpanCtx, Tracer, WindowConfig, WindowSet, WindowSnapshot,
};
use cyclesql_sql::{parse, to_sql, Query};
use cyclesql_storage::{Database, ExecOpts, ResultSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What happens when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitter until the queue has room (closed-loop load).
    Block,
    /// Reject immediately with [`ServeError::Overloaded`] (load shedding).
    Shed,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running the pipeline.
    pub workers: usize,
    /// Bounded admission-queue depth.
    pub queue_capacity: usize,
    /// Full-queue behaviour.
    pub policy: AdmissionPolicy,
    /// Per-request deadline, measured from admission; `None` never times
    /// out.
    pub deadline: Option<Duration>,
    /// Total result-cache capacity, in cached query results (`0` caches
    /// nothing: every execute runs).
    pub plan_cache_capacity: usize,
    /// Result-cache shard count.
    pub plan_cache_shards: usize,
    /// Candidates requested from the model per question (beam size).
    pub k: usize,
    /// Intra-query morsel workers per candidate execution when the engine
    /// is otherwise idle. The effective width divides by the number of
    /// in-flight requests (floor 1), so intra-query parallelism speeds up
    /// a lightly loaded engine without oversubscribing a saturated one —
    /// at full occupancy every query degrades to single-threaded
    /// execution. `1` (the default) disables intra-query parallelism.
    pub intra_query_threads: usize,
    /// Capacity of the per-request debug summary ring behind
    /// `/v1/debug/requests`; `0` disables it. Overwrites of unread
    /// entries are counted into the tracer's `ObsCounters` only when the
    /// engine is traced, keeping the untraced all-zero counter gate.
    pub request_log_capacity: usize,
    /// Rolling windowed telemetry (per-stage rate / error-rate / latency
    /// histograms with trace exemplars). `None` (the default) keeps the
    /// hot path free of window bookkeeping.
    pub window: Option<WindowConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            policy: AdmissionPolicy::Block,
            deadline: None,
            plan_cache_capacity: 1024,
            plan_cache_shards: 8,
            k: 8,
            intra_query_threads: 1,
            request_log_capacity: 256,
            window: None,
        }
    }
}

/// One NL question to serve. The target database is the item's `db_name`.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The question (plus its gold SQL, consulted only by the oracle
    /// verifier).
    pub item: Arc<BenchmarkItem>,
}

/// A served answer.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The database the question was answered against.
    pub db_id: String,
    /// The selected SQL (first verified candidate, or the top-1 fallback).
    pub sql: String,
    /// Whether the verifier accepted a candidate.
    pub accepted: bool,
    /// Loop iterations (candidates examined).
    pub iterations: usize,
    /// The data-grounded explanation text of the chosen candidate, when
    /// one was generated.
    pub explanation: Option<String>,
    /// The chosen candidate's result rows.
    pub result: Option<Arc<ResultSet>>,
    /// Per-stage wall-clock for this request (translate included).
    pub stages: StageTimings,
    /// Time the request spent in the admission queue before a worker
    /// picked it up.
    pub queue_wait: Duration,
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Shed at admission: the queue was full under [`AdmissionPolicy::Shed`].
    Overloaded,
    /// The deadline passed before a response was produced.
    DeadlineExceeded,
    /// The catalog serves no database with this id.
    UnknownDatabase(String),
    /// The engine shut down before the request could be admitted.
    Shutdown,
    /// The pipeline panicked while serving the request. The worker
    /// survived; only this request failed.
    Internal,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full, request shed"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::UnknownDatabase(id) => write!(f, "unknown database `{id}`"),
            ServeError::Shutdown => write!(f, "engine shut down"),
            ServeError::Internal => write!(f, "request failed inside the engine"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One-shot response slot shared between a [`Ticket`] and its completion.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<Result<ServeResponse, ServeError>>>,
    ready: Condvar,
}

/// A handle to a pending response; [`Ticket::wait`] blocks until the
/// worker fulfils it.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// A pending response plus the completion that fulfils it: hand the
    /// completion to [`ServiceEngine::submit_with`] (or a front tier that
    /// forwards it there) and [`Ticket::wait`] on the ticket.
    pub fn pending() -> (
        Ticket,
        impl FnOnce(Result<ServeResponse, ServeError>) + Send + 'static,
    ) {
        let slot = Arc::new(Slot::default());
        let fill = Arc::clone(&slot);
        let done = move |result| {
            *fill.result.lock().expect("response slot poisoned") = Some(result);
            fill.ready.notify_one();
        };
        (Ticket { slot }, done)
    }

    /// Blocks until the request is served (or fails).
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        let mut guard = self.slot.result.lock().expect("response slot poisoned");
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.slot.ready.wait(guard).expect("response slot poisoned");
        }
    }
}

struct Job {
    /// Engine-assigned request id, carried into the request's root span.
    id: u64,
    item: Arc<BenchmarkItem>,
    /// Receives the outcome, exactly once (see
    /// [`ServiceEngine::submit_with`]).
    done: Box<dyn FnOnce(Result<ServeResponse, ServeError>) + Send>,
    deadline: Option<Instant>,
    /// Admission time, for queue-wait accounting.
    submitted: Instant,
    /// When a front tier (the network server) owns the request's root
    /// span, the engine's `serve` span becomes its child instead of a
    /// trace root.
    parent: Option<SharedSpan>,
}

/// State shared by every worker.
struct Shared {
    catalog: Arc<Catalog>,
    model: SimulatedModel,
    cycle: CycleSql,
    cache: ResultCache,
    metrics: Metrics,
    k: usize,
    /// Request tracing; `None` keeps the hot path span-free.
    tracer: Option<Arc<Tracer>>,
    /// Collect an EXPLAIN ANALYZE operator profile per traced execution.
    analyze: bool,
    /// Monotonic request-id source.
    next_request: AtomicU64,
    /// Idle-engine intra-query worker cap ([`ServeConfig`] knob).
    intra_query_threads: usize,
    /// Requests currently being processed by workers (the occupancy gauge
    /// that divides `intra_query_threads` into each request's effective
    /// execution width).
    in_flight: AtomicUsize,
    /// Bounded per-request debug summaries; `None` when disabled.
    requests: Option<RequestLog>,
    /// Rolling windowed telemetry; `None` when disabled.
    windows: Option<Arc<WindowSet>>,
}

/// Window indices in [`Shared::windows`]: `total` first, then the five
/// pipeline stages in [`crate::requests::STAGE_NAMES`] order.
const WINDOW_STAGES: [&str; 6] = [
    "total",
    "translate",
    "execute",
    "provenance",
    "explain",
    "verify",
];

/// One request's view of the shared result cache for one pipeline phase:
/// every lookup goes to the engine-wide cache (so its global hit/miss
/// counters stay exact), while the phase's own split is tallied here. The
/// execute phase also tallies its explanation memo reads, which are not
/// cache lookups.
#[derive(Default)]
struct PhaseTally {
    hits: AtomicU64,
    misses: AtomicU64,
    explain_hits: AtomicU64,
    explain_misses: AtomicU64,
}

struct PhaseCache<'a> {
    cache: &'a ResultCache,
    tally: PhaseTally,
}

fn count(hit: bool, hits: &AtomicU64, misses: &AtomicU64) {
    let tally = if hit { hits } else { misses };
    tally.fetch_add(1, Ordering::Relaxed);
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl RunCache for PhaseCache<'_> {
    fn run(
        &self,
        db: &Database,
        sql: &str,
        query: &Query,
        opts: &ExecOpts<'_>,
    ) -> (Option<Arc<CachedRun>>, bool) {
        let (run, hit) = self.cache.run(db, sql, query, opts);
        count(hit, &self.tally.hits, &self.tally.misses);
        (run, hit)
    }

    fn explanation(
        &self,
        run: &CachedRun,
        make: &mut dyn FnMut() -> Explanation,
    ) -> (Arc<Explanation>, bool) {
        let (explanation, hit) = run.explanation_or_init(make);
        count(hit, &self.tally.explain_hits, &self.tally.explain_misses);
        (explanation, hit)
    }
}

/// A request's cache views: `translate` serves the gold and the
/// simulator's validation runs, whose entries the candidates carry into the
/// loop; `execute` serves the loop's lookups of candidates that carry no
/// entry, and tallies every explanation read.
struct RequestPlans<'a> {
    translate: PhaseCache<'a>,
    execute: PhaseCache<'a>,
}

impl<'a> RequestPlans<'a> {
    fn new(cache: &'a ResultCache) -> Self {
        let phase = || PhaseCache {
            cache,
            tally: PhaseTally::default(),
        };
        RequestPlans {
            translate: phase(),
            execute: phase(),
        }
    }

    fn hits(&self) -> u64 {
        load(&self.translate.tally.hits) + load(&self.execute.tally.hits)
    }

    fn misses(&self) -> u64 {
        load(&self.translate.tally.misses) + load(&self.execute.tally.misses)
    }
}

/// The serving engine. Start it with [`ServiceEngine::start`], submit with
/// [`ServiceEngine::call`] (or [`ServiceEngine::submit`] for pipelined
/// clients), and stop it with [`ServiceEngine::shutdown`], which drains
/// in-flight requests and returns the final metrics.
pub struct ServiceEngine {
    shared: Arc<Shared>,
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    policy: AdmissionPolicy,
    deadline: Option<Duration>,
}

impl ServiceEngine {
    /// Spawns the worker pool over an immutable catalog, one model, and
    /// one configured feedback loop. No request tracing: the pipeline's
    /// span hooks all collapse to no-ops.
    pub fn start(
        catalog: Arc<Catalog>,
        model: SimulatedModel,
        cycle: CycleSql,
        config: ServeConfig,
    ) -> Self {
        Self::start_inner(catalog, model, cycle, config, None, false)
    }

    /// [`ServiceEngine::start`] with request tracing: every request opens a
    /// root `serve` span on `tracer` (request id, database, admission
    /// outcome, result-cache hits/misses split into translate and
    /// execute, explanation memo hits/misses), with per-candidate `cycle`
    /// children and `execute` / `provenance` / `explain` / `verify` stage
    /// spans below. With `analyze` set, each traced execution additionally
    /// collects an EXPLAIN ANALYZE operator profile, attached to its
    /// `execute` span.
    pub fn start_traced(
        catalog: Arc<Catalog>,
        model: SimulatedModel,
        cycle: CycleSql,
        config: ServeConfig,
        tracer: Arc<Tracer>,
        analyze: bool,
    ) -> Self {
        Self::start_inner(catalog, model, cycle, config, Some(tracer), analyze)
    }

    fn start_inner(
        catalog: Arc<Catalog>,
        model: SimulatedModel,
        cycle: CycleSql,
        config: ServeConfig,
        tracer: Option<Arc<Tracer>>,
        analyze: bool,
    ) -> Self {
        // Overwrite accounting for the request ring goes through the
        // tracer's counters; an untraced engine's ring counts nothing.
        let ring_counters = tracer.as_ref().map(|t| Arc::clone(t.counters()));
        let requests = (config.request_log_capacity > 0)
            .then(|| RequestLog::new(config.request_log_capacity, ring_counters));
        let windows = config
            .window
            .map(|cfg| Arc::new(WindowSet::new(&WINDOW_STAGES, cfg)));
        let shared = Arc::new(Shared {
            catalog,
            model,
            cycle,
            cache: ResultCache::new(config.plan_cache_capacity, config.plan_cache_shards),
            metrics: Metrics::default(),
            k: config.k.max(1),
            tracer,
            analyze,
            next_request: AtomicU64::new(0),
            intra_query_threads: config.intra_query_threads.max(1),
            in_flight: AtomicUsize::new(0),
            requests,
            windows,
        });
        let (tx, rx) = sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn serve worker")
            })
            .collect();
        ServiceEngine {
            shared,
            tx: Some(tx),
            workers,
            policy: config.policy,
            deadline: config.deadline,
        }
    }

    /// Submits a request, returning a [`Ticket`] once admitted. Under
    /// [`AdmissionPolicy::Block`] this parks until the queue has room;
    /// under [`AdmissionPolicy::Shed`] a full queue fails fast with
    /// [`ServeError::Overloaded`].
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        self.submit_under(req, None)
    }

    /// [`ServiceEngine::submit`] with an optional parent span owned by a
    /// front tier: the request's `serve` span is opened as its child
    /// instead of a trace root, so one trace covers wire handling and
    /// pipeline work. When a parent is supplied, shed outcomes are *not*
    /// given an engine-side span — the caller owns the root and records
    /// the admission outcome there.
    pub fn submit_under(
        &self,
        req: ServeRequest,
        parent: Option<SharedSpan>,
    ) -> Result<Ticket, ServeError> {
        let (ticket, done) = Ticket::pending();
        if self.submit_with(req, parent, done) {
            return Ok(ticket);
        }
        Err(ticket
            .wait()
            .expect_err("a refused request completes with an error"))
    }

    /// [`ServiceEngine::submit_under`] with the outcome delivered to
    /// `done` instead of a [`Ticket`]. `done` runs exactly once: on the
    /// worker that served the request (after the pipeline returned or
    /// panicked), or — when admission refuses the request (shed, shut
    /// down) — on this thread before `submit_with` returns. Returns
    /// whether the request was admitted.
    pub fn submit_with(
        &self,
        req: ServeRequest,
        parent: Option<SharedSpan>,
        done: impl FnOnce(Result<ServeResponse, ServeError>) + Send + 'static,
    ) -> bool {
        let has_parent = parent.is_some();
        let job = Job {
            id: self.shared.next_request.fetch_add(1, Ordering::Relaxed),
            item: req.item,
            done: Box::new(done),
            deadline: self.deadline.map(|d| Instant::now() + d),
            submitted: Instant::now(),
            parent,
        };
        let tx = self.tx.as_ref().expect("engine running");
        let refused = match self.policy {
            AdmissionPolicy::Block => tx.send(job).err().map(|e| (e.0, ServeError::Shutdown)),
            AdmissionPolicy::Shed => match tx.try_send(job) {
                Ok(()) => None,
                Err(TrySendError::Full(job)) => {
                    self.record_shed(&job, has_parent);
                    Some((job, ServeError::Overloaded))
                }
                Err(TrySendError::Disconnected(job)) => Some((job, ServeError::Shutdown)),
            },
        };
        match refused {
            None => {
                self.shared.metrics.admitted.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some((job, error)) => {
                (job.done)(Err(error));
                false
            }
        }
    }

    /// Counts a shed request and files its admission outcome. Shed
    /// requests never reach a worker, so their trace is just the root span
    /// with the admission outcome.
    fn record_shed(&self, job: &Job, has_parent: bool) {
        self.shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
        let mut trace_id = job.parent.as_ref().and_then(|p| p.trace_id());
        if let (Some(tracer), false) = (&self.shared.tracer, has_parent) {
            let mut s = tracer.root("serve");
            trace_id = Some(s.trace_id());
            s.set("request", job.id);
            s.set("db", job.item.db_name.as_str());
            s.set("outcome", "shed");
            s.set_error();
        }
        if let Some(log) = &self.shared.requests {
            log.push(RequestSummary {
                request: job.id,
                trace_id,
                item_id: job.item.id.clone(),
                db: job.item.db_name.clone(),
                outcome: "shed",
                accepted: false,
                iterations: 0,
                plan_hits: 0,
                plan_misses: 0,
                queue_wait_us: 0,
                total_us: 0,
                stages_us: [0; 5],
                sql_digest: 0,
            });
        }
        if let Some(windows) = &self.shared.windows {
            windows.record(0, 0, true, None);
        }
    }

    /// Submits a request and blocks for its response.
    pub fn call(&self, req: ServeRequest) -> Result<ServeResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// The engine's result cache (shared by every worker).
    pub fn result_cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// Requests currently being processed by workers (excludes queued
    /// requests). A front router reads this as the shard's busyness.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Buffered per-request debug summaries, oldest first (empty when the
    /// request log is disabled).
    pub fn recent_requests(&self) -> Vec<RequestSummary> {
        self.shared
            .requests
            .as_ref()
            .map(RequestLog::recent)
            .unwrap_or_default()
    }

    /// Buffered summaries at least `threshold_us` of total time, oldest
    /// first (empty when the request log is disabled).
    pub fn slow_requests(&self, threshold_us: u64) -> Vec<RequestSummary> {
        self.shared
            .requests
            .as_ref()
            .map(|log| log.slow(threshold_us))
            .unwrap_or_default()
    }

    /// Point-in-time windowed telemetry per stage (`None` when windows
    /// are disabled). Labels are `total` plus the five pipeline stages.
    pub fn telemetry_snapshot(&self) -> Option<Vec<(&'static str, WindowSnapshot)>> {
        self.shared.windows.as_ref().map(|w| w.snapshot())
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared
            .metrics
            .snapshot(self.shared.cache.hits(), self.shared.cache.misses())
    }

    /// Graceful shutdown: stops admitting, drains every queued request,
    /// joins the workers, and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.metrics_snapshot()
    }

    fn stop_and_join(&mut self) {
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServiceEngine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only for the dequeue; `recv` drains
        // already-admitted jobs even after the sender is dropped, which is
        // exactly the graceful-shutdown contract.
        let job = match rx.lock().expect("admission queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        // A panic costs its request, not the worker: the request completes
        // with a typed error and the worker takes the next job.
        let result =
            catch_unwind(AssertUnwindSafe(|| process(shared, &job))).unwrap_or_else(|_| {
                shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Internal)
            });
        shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
        (job.done)(result);
    }
}

/// RAII occupancy ticket: registers one in-flight request on construction
/// and reports the occupancy *including this request*, so the divisor is
/// never zero; deregisters on drop (any exit path, including panics).
struct InFlight<'a> {
    gauge: &'a AtomicUsize,
    occupancy: usize,
}

impl<'a> InFlight<'a> {
    fn enter(gauge: &'a AtomicUsize) -> Self {
        let occupancy = gauge.fetch_add(1, Ordering::Relaxed) + 1;
        InFlight { gauge, occupancy }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs the full pipeline for one admitted request, inside a root `serve`
/// span when the engine is traced.
fn process(shared: &Shared, job: &Job) -> Result<ServeResponse, ServeError> {
    // Queue wait is measured for every dequeued request — success, error,
    // or deadline-expired-in-queue alike — because it is a property of the
    // admission queue, not of the pipeline outcome.
    let queue_wait = job.submitted.elapsed();
    shared.metrics.queue_wait.record(queue_wait);
    // Split the idle-engine intra-query budget across whatever is running
    // right now: an idle engine gives this request the full width, a
    // saturated one degrades it to single-threaded execution, and total
    // execution threads never exceed `workers × intra_query_threads /
    // occupancy` — no oversubscription as load rises.
    let ticket = InFlight::enter(&shared.in_flight);
    let exec_threads = (shared.intra_query_threads / ticket.occupancy).max(1);
    let plans = RequestPlans::new(&shared.cache);
    let started = Instant::now();
    // The `serve` span: a child of the front tier's root when one was
    // supplied (the parent's tracer carries the trace), otherwise a trace
    // root on the engine's own tracer, otherwise tracing is off.
    let mut root: Option<Span> = match &job.parent {
        Some(parent) => parent.child("serve"),
        None => shared.tracer.as_ref().map(|t| t.root("serve")),
    };
    let trace_id = root.as_ref().map(Span::trace_id);
    if let Some(root) = root.as_mut() {
        root.set("request", job.id);
        root.set("db", job.item.db_name.as_str());
        root.set("exec_threads", exec_threads);
        root.set("queue_wait_us", queue_wait.as_micros() as u64);
    }
    let mut sim = SimStats::default();
    let result = process_inner(
        shared,
        job,
        &plans,
        root.as_ref().map_or(SpanCtx::none(), SpanCtx::of),
        root.is_some() && shared.analyze,
        exec_threads,
        &mut sim,
    )
    .map(|r| with_queue_wait(r, queue_wait));
    if let Some(mut root) = root {
        root.set("candidates", sim.candidates);
        root.set("sim_attempts", sim.attempts);
        root.set("sim_retries", sim.retries);
        root.set("plan_hits", plans.hits());
        root.set("plan_misses", plans.misses());
        let (translate, execute) = (&plans.translate.tally, &plans.execute.tally);
        root.set("translate_cache_hits", load(&translate.hits));
        root.set("translate_cache_misses", load(&translate.misses));
        root.set("execute_cache_hits", load(&execute.hits));
        root.set("execute_cache_misses", load(&execute.misses));
        root.set("explain_cache_hits", load(&execute.explain_hits));
        root.set("explain_cache_misses", load(&execute.explain_misses));
        match &result {
            Ok(resp) => {
                root.set("outcome", "ok");
                root.set("accepted", resp.accepted);
                root.set("iterations", resp.iterations);
            }
            Err(e) => {
                root.set("outcome", outcome_label(e));
                root.set_error();
            }
        }
    }
    let (metrics, tally) = (&shared.metrics, &plans.execute.tally);
    metrics
        .explain_cache_hits
        .fetch_add(load(&tally.explain_hits), Ordering::Relaxed);
    metrics
        .explain_cache_misses
        .fetch_add(load(&tally.explain_misses), Ordering::Relaxed);
    record_outcome(shared, job, &plans, trace_id, queue_wait, started, &result);
    result
}

/// The fixed outcome vocabulary shared by spans and request summaries.
fn outcome_label(e: &ServeError) -> &'static str {
    match e {
        ServeError::Overloaded => "overloaded",
        ServeError::DeadlineExceeded => "deadline",
        ServeError::UnknownDatabase(_) => "unknown_db",
        ServeError::Shutdown => "shutdown",
        ServeError::Internal => "internal",
    }
}

/// Files one finished request into the debug summary ring and the rolling
/// telemetry windows (whichever are enabled). Exemplars are attached only
/// when the request was traced — they carry its trace id.
fn record_outcome(
    shared: &Shared,
    job: &Job,
    plans: &RequestPlans<'_>,
    trace_id: Option<u64>,
    queue_wait: Duration,
    started: Instant,
    result: &Result<ServeResponse, ServeError>,
) {
    if shared.requests.is_none() && shared.windows.is_none() {
        return;
    }
    let total_us = started.elapsed().as_micros() as u64;
    let us = |d: Duration| d.as_micros() as u64;
    let (outcome, accepted, iterations, stages_us, digest) = match result {
        Ok(resp) => (
            "ok",
            resp.accepted,
            resp.iterations,
            [
                us(resp.stages.translate),
                us(resp.stages.execute),
                us(resp.stages.provenance),
                us(resp.stages.explain),
                us(resp.stages.verify),
            ],
            sql_digest(&resp.sql),
        ),
        Err(e) => (outcome_label(e), false, 0, [0; 5], 0),
    };
    if let Some(log) = &shared.requests {
        log.push(RequestSummary {
            request: job.id,
            trace_id,
            item_id: job.item.id.clone(),
            db: job.item.db_name.clone(),
            outcome,
            accepted,
            iterations,
            plan_hits: plans.hits(),
            plan_misses: plans.misses(),
            queue_wait_us: queue_wait.as_micros() as u64,
            total_us,
            stages_us,
            sql_digest: digest,
        });
    }
    if let Some(windows) = &shared.windows {
        let exemplar = |value_us: u64| {
            trace_id.map(|tid| Exemplar {
                trace_id: tid,
                sql_digest: digest,
                value_us,
            })
        };
        windows.record(0, total_us, result.is_err(), exemplar(total_us));
        if result.is_ok() {
            for (i, stage_us) in stages_us.into_iter().enumerate() {
                windows.record(i + 1, stage_us, false, exemplar(stage_us));
            }
        }
    }
}

/// Stamps the queue wait measured at dequeue onto a finished response.
fn with_queue_wait(mut resp: ServeResponse, queue_wait: Duration) -> ServeResponse {
    resp.queue_wait = queue_wait;
    resp
}

/// Serves one request, leaving in `sim` what its beam drew.
fn process_inner(
    shared: &Shared,
    job: &Job,
    plans: &RequestPlans<'_>,
    span: SpanCtx<'_>,
    analyze: bool,
    exec_threads: usize,
    sim: &mut SimStats,
) -> Result<ServeResponse, ServeError> {
    let started = Instant::now();
    let metrics = &shared.metrics;
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        // Expired while queued: don't burn a worker on a dead request.
        metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::DeadlineExceeded);
    }
    let item = job.item.as_ref();
    let Some(entry) = shared.catalog.get(&item.db_name) else {
        metrics.unknown_db.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::UnknownDatabase(item.db_name.clone()));
    };
    let db = entry.db.as_ref();

    let translate_span = span.child("translate");
    let t = Instant::now();
    let request = TranslationRequest {
        item,
        db,
        k: shared.k,
        severity: 0.0,
        science: entry.science,
    };
    // Misses run at the request's granted morsel width.
    let opts = ExecOpts {
        threads: exec_threads,
        ..ExecOpts::default()
    };
    // The gold is parsed and printed once per request and its run read
    // through the cache under that print; both feed the simulator and,
    // below, the oracle verifier.
    let gold = parse(&item.gold_sql).ok().map(|ast| {
        let sql = to_sql(&ast);
        PreparedGold {
            run: plans.translate.run(db, &sql, &ast, &opts).0,
            ast: Arc::new(ast),
            sql,
            source: Some(&plans.translate),
        }
    });
    // The loop pulls candidates from the beam as it examines them; only
    // the top-1, which every outcome reports, is drawn here.
    let mut beam = shared.model.beam(&request, gold.as_ref());
    let top1 = beam.next();
    let translate = t.elapsed();
    drop(translate_span);

    let gold_result = match &shared.cycle.verifier {
        LoopVerifier::Oracle => gold
            .as_ref()
            .and_then(|g| g.run.as_deref())
            .map(|run| &*run.result),
        _ => None,
    };

    let controls = RunControls {
        deadline: job.deadline,
        cache: Some(&plans.execute),
        span,
        analyze,
        exec_threads,
    };
    let mut outcome = shared.cycle.run_controlled(
        item,
        db,
        top1.into_iter().chain(&mut beam),
        gold_result,
        &controls,
    );
    *sim = beam.stats();
    metrics
        .sim_candidates
        .fetch_add(sim.candidates, Ordering::Relaxed);
    metrics
        .sim_attempts
        .fetch_add(sim.attempts, Ordering::Relaxed);
    metrics
        .sim_retries
        .fetch_add(sim.retries, Ordering::Relaxed);
    if outcome.timed_out {
        metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::DeadlineExceeded);
    }
    outcome.stages.translate += translate;

    metrics
        .iterations
        .fetch_add(outcome.iterations as u64, Ordering::Relaxed);
    let rejects = outcome.iterations - usize::from(outcome.accepted);
    metrics
        .verifier_rejects
        .fetch_add(rejects as u64, Ordering::Relaxed);
    metrics
        .verifier_accepts
        .fetch_add(u64::from(outcome.accepted), Ordering::Relaxed);
    metrics.stages.record(&outcome.stages, started.elapsed());

    Ok(ServeResponse {
        db_id: item.db_name.clone(),
        sql: outcome.chosen_sql,
        accepted: outcome.accepted,
        iterations: outcome.iterations,
        // The explanation is usually shared with its cache entry; only its
        // text is served.
        explanation: outcome
            .explanation
            .map(|e| Arc::try_unwrap(e).map_or_else(|e| e.text.clone(), |e| e.text)),
        result: outcome.chosen_result,
        stages: outcome.stages,
        queue_wait: Duration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
    use cyclesql_models::ModelProfile;
    use cyclesql_nli::{Verdict, Verifier, VerifyInput};

    fn quick_suite() -> cyclesql_benchgen::BenchmarkSuite {
        build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 0xE16,
                train_per_template: 1,
                eval_per_template: 2,
            },
        )
    }

    fn oracle_engine(config: ServeConfig) -> (ServiceEngine, Vec<Arc<BenchmarkItem>>) {
        let suite = quick_suite();
        let items: Vec<Arc<BenchmarkItem>> = suite.dev.iter().cloned().map(Arc::new).collect();
        let catalog = Arc::new(Catalog::from_suites([&suite]));
        let engine = ServiceEngine::start(
            catalog,
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            CycleSql::new(LoopVerifier::Oracle),
            config,
        );
        (engine, items)
    }

    /// A verifier with a fixed wall-clock cost per verify call, so tests
    /// can saturate the admission queue deterministically. `entails`
    /// decides whether the loop stops at the first candidate (true) or
    /// keeps walking the beam (false).
    struct SlowVerifier {
        per_verify: Duration,
        entails: bool,
    }
    impl Verifier for SlowVerifier {
        fn verify(&self, _input: &VerifyInput<'_>) -> Verdict {
            std::thread::sleep(self.per_verify);
            Verdict {
                entails: self.entails,
                score: if self.entails { 1.0 } else { 0.0 },
            }
        }
        fn name(&self) -> &'static str {
            "slow"
        }
    }

    fn slow_engine(
        config: ServeConfig,
        per_verify: Duration,
        entails: bool,
    ) -> (ServiceEngine, Vec<Arc<BenchmarkItem>>) {
        let suite = quick_suite();
        let items: Vec<Arc<BenchmarkItem>> = suite.dev.iter().cloned().map(Arc::new).collect();
        let catalog = Arc::new(Catalog::from_suites([&suite]));
        let engine = ServiceEngine::start(
            catalog,
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            CycleSql::new(LoopVerifier::Custom(Box::new(SlowVerifier {
                per_verify,
                entails,
            }))),
            config,
        );
        (engine, items)
    }

    #[test]
    fn serves_requests_end_to_end() {
        let (engine, items) = oracle_engine(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        for item in items.iter().take(6) {
            let resp = engine
                .call(ServeRequest {
                    item: Arc::clone(item),
                })
                .unwrap();
            assert_eq!(resp.db_id, item.db_name);
            assert!(!resp.sql.is_empty());
            assert!(resp.iterations >= 1);
        }
        let snap = engine.shutdown();
        assert_eq!(snap.admitted, 6);
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.stages.total.count, 6);
        assert!(
            snap.cache_hits + snap.cache_misses > 0,
            "plans routed via cache"
        );
    }

    #[test]
    fn unknown_database_is_a_typed_error() {
        let (engine, items) = oracle_engine(ServeConfig::default());
        let mut item = (*items[0]).clone();
        item.db_name = "no_such_db".into();
        let err = engine
            .call(ServeRequest {
                item: Arc::new(item),
            })
            .unwrap_err();
        assert_eq!(err, ServeError::UnknownDatabase("no_such_db".into()));
        assert_eq!(engine.shutdown().unknown_db, 1);
    }

    #[test]
    fn shed_policy_rejects_when_queue_is_full() {
        let (engine, items) = slow_engine(
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                policy: AdmissionPolicy::Shed,
                ..ServeConfig::default()
            },
            Duration::from_millis(40),
            true,
        );
        // Burst 10 submissions: 1 in flight + 1 queued absorb the first
        // two; the worker sleeps 40ms per request, so the rest of the burst
        // (microseconds apart) must shed.
        let tickets: Vec<_> = (0..10)
            .map(|i| {
                engine.submit(ServeRequest {
                    item: Arc::clone(&items[i % items.len()]),
                })
            })
            .collect();
        let shed = tickets.iter().filter(|t| t.is_err()).count();
        assert!(shed >= 7, "burst mostly shed, got {shed}");
        for ticket in tickets.into_iter().flatten() {
            assert!(ticket.wait().is_ok());
        }
        let snap = engine.shutdown();
        assert_eq!(snap.shed, shed as u64);
        assert_eq!(snap.admitted, 10 - shed as u64);
        assert_eq!(
            snap.completed, snap.admitted,
            "admitted requests all drained"
        );
    }

    #[test]
    fn block_policy_admits_everything() {
        let (engine, items) = slow_engine(
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                policy: AdmissionPolicy::Block,
                ..ServeConfig::default()
            },
            Duration::from_millis(5),
            true,
        );
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                engine
                    .submit(ServeRequest {
                        item: Arc::clone(&items[i % items.len()]),
                    })
                    .expect("block policy never sheds")
            })
            .collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let snap = engine.shutdown();
        assert_eq!(snap.admitted, 8);
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.shed, 0);
    }

    #[test]
    fn deadlines_abandon_slow_requests() {
        // The rejecting verifier keeps the loop walking the beam; the
        // deadline check between iterations abandons it after the first
        // 50ms verify call blows the 10ms budget.
        let (engine, items) = slow_engine(
            ServeConfig {
                workers: 1,
                deadline: Some(Duration::from_millis(10)),
                ..ServeConfig::default()
            },
            Duration::from_millis(50),
            false,
        );
        let err = engine
            .call(ServeRequest {
                item: Arc::clone(&items[0]),
            })
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        let snap = engine.shutdown();
        assert_eq!(snap.timeouts, 1);
        assert_eq!(
            snap.stages.total.count, 0,
            "timed-out requests skip histograms"
        );
    }

    fn memory_tracer() -> (Arc<Tracer>, Arc<cyclesql_obs::MemorySink>) {
        let counters = Arc::new(cyclesql_obs::ObsCounters::default());
        let sink = Arc::new(cyclesql_obs::MemorySink::new(4096, Arc::clone(&counters)));
        let tracer = Arc::new(Tracer::new(
            sink.clone() as Arc<dyn cyclesql_obs::SpanSink>,
            counters,
        ));
        (tracer, sink)
    }

    #[test]
    fn traced_engine_emits_request_span_trees() {
        let suite = quick_suite();
        let items: Vec<Arc<BenchmarkItem>> = suite.dev.iter().cloned().map(Arc::new).collect();
        let catalog = Arc::new(Catalog::from_suites([&suite]));
        let (tracer, sink) = memory_tracer();
        let engine = ServiceEngine::start_traced(
            catalog,
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            CycleSql::new(LoopVerifier::Oracle),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            Arc::clone(&tracer),
            true,
        );
        for item in items.iter().take(4) {
            engine
                .call(ServeRequest {
                    item: Arc::clone(item),
                })
                .unwrap();
        }
        let snap = engine.shutdown();
        assert_eq!(snap.completed, 4);

        let records = sink.records();
        let roots: Vec<_> = records.iter().filter(|r| r.name == "serve").collect();
        assert_eq!(roots.len(), 4, "one root span per request");
        for root in &roots {
            assert!(root.attr("request").is_some());
            assert!(root.attr("db").is_some());
            assert!(root.attr("outcome").is_some());
            assert!(
                root.attr("plan_hits").is_some() && root.attr("plan_misses").is_some(),
                "plan-cache split on the root"
            );
            assert!(
                root.attr("explain_cache_hits").is_some()
                    && root.attr("explain_cache_misses").is_some(),
                "explanation memo split on the root"
            );
            // Exactly one translate child per request.
            let translates = records
                .iter()
                .filter(|r| r.name == "translate" && r.parent_id == Some(root.span_id))
                .count();
            assert_eq!(translates, 1);
            // At least one candidate iteration, each with an execute stage
            // child carrying the EXPLAIN ANALYZE profile (analyze=true).
            let cycles: Vec<_> = records
                .iter()
                .filter(|r| r.name == "cycle" && r.parent_id == Some(root.span_id))
                .collect();
            assert!(!cycles.is_empty(), "candidate spans under the root");
            let analyzed = records.iter().any(|r| {
                r.name == "execute"
                    && cycles.iter().any(|c| r.parent_id == Some(c.span_id))
                    && r.attr("analyze").is_some()
            });
            assert!(analyzed, "EXPLAIN ANALYZE attached to an execute span");
        }
        // Tracing aggregates into the same histograms the untraced engine
        // fills: the snapshot surface is unchanged.
        assert_eq!(snap.stages.total.count, 4);
    }

    #[test]
    fn requests_draw_only_the_candidates_they_examine() {
        // The oracle accepts at the first correct candidate, so requests
        // stop at different iterations; each drew exactly that many.
        let suite = quick_suite();
        let items: Vec<Arc<BenchmarkItem>> = suite.dev.iter().cloned().map(Arc::new).collect();
        let catalog = Arc::new(Catalog::from_suites([&suite]));
        let (tracer, sink) = memory_tracer();
        let engine = ServiceEngine::start_traced(
            Arc::clone(&catalog),
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            CycleSql::new(LoopVerifier::Oracle),
            ServeConfig::default(),
            tracer,
            false,
        );
        for item in &items {
            engine
                .call(ServeRequest {
                    item: Arc::clone(item),
                })
                .unwrap();
        }
        let snap = engine.shutdown();
        let records = sink.records();
        let int = |r: &cyclesql_obs::SpanRecord, key: &str| match r.attr(key) {
            Some(cyclesql_obs::AttrValue::Int(n)) => *n,
            other => panic!("{}.{key} = {other:?}", r.name),
        };
        let roots: Vec<_> = records.iter().filter(|r| r.name == "serve").collect();
        assert_eq!(roots.len(), items.len());
        let mut iterations = Vec::new();
        for root in &roots {
            assert_eq!(int(root, "candidates"), int(root, "iterations"));
            iterations.push(int(root, "iterations"));
            // The top-1 is drawn under the request's one `translate` span;
            // each later draw under its own `cycle` span.
            let cycles: Vec<_> = records
                .iter()
                .filter(|r| r.name == "cycle" && r.parent_id == Some(root.span_id))
                .collect();
            assert_eq!(cycles.len() as i64, int(root, "iterations"));
            for cycle in cycles {
                let draws = records
                    .iter()
                    .filter(|r| r.name == "translate" && r.parent_id == Some(cycle.span_id))
                    .count();
                assert_eq!(draws, usize::from(int(cycle, "candidate") > 0));
            }
        }
        assert!(
            iterations.iter().any(|&i| i > 1) && iterations.contains(&1),
            "requests stopped at different iterations: {iterations:?}"
        );
        let drawn: i64 = iterations.iter().sum();
        assert_eq!(snap.sim_candidates, drawn as u64);
        assert!(snap.sim_candidates < (items.len() * ServeConfig::default().k) as u64);

        // An always-accepting verifier takes the first candidate that runs:
        // nearly always the top-1, so nearly one draw per request.
        let engine = ServiceEngine::start(
            catalog,
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            CycleSql::new(LoopVerifier::AlwaysAccept(
                cyclesql_nli::AlwaysAcceptVerifier,
            )),
            ServeConfig::default(),
        );
        let mut iterations = 0;
        for item in &items {
            let resp = engine
                .call(ServeRequest {
                    item: Arc::clone(item),
                })
                .unwrap();
            assert!(resp.accepted);
            iterations += resp.iterations as u64;
        }
        let snap = engine.shutdown();
        assert_eq!(snap.sim_candidates, iterations);
        assert!(iterations < items.len() as u64 * 11 / 10, "{iterations}");
    }

    #[test]
    fn shed_requests_trace_an_error_root_span() {
        let suite = quick_suite();
        let items: Vec<Arc<BenchmarkItem>> = suite.dev.iter().cloned().map(Arc::new).collect();
        let catalog = Arc::new(Catalog::from_suites([&suite]));
        let (tracer, sink) = memory_tracer();
        let engine = ServiceEngine::start_traced(
            catalog,
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            CycleSql::new(LoopVerifier::Custom(Box::new(SlowVerifier {
                per_verify: Duration::from_millis(40),
                entails: true,
            }))),
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                policy: AdmissionPolicy::Shed,
                ..ServeConfig::default()
            },
            Arc::clone(&tracer),
            false,
        );
        let tickets: Vec<_> = (0..10)
            .map(|i| {
                engine.submit(ServeRequest {
                    item: Arc::clone(&items[i % items.len()]),
                })
            })
            .collect();
        let shed = tickets.iter().filter(|t| t.is_err()).count();
        assert!(shed > 0, "burst saturated the queue");
        for ticket in tickets.into_iter().flatten() {
            ticket.wait().unwrap();
        }
        engine.shutdown();
        let records = sink.records();
        let shed_roots = records
            .iter()
            .filter(|r| {
                r.name == "serve"
                    && r.error
                    && matches!(
                        r.attr("outcome"),
                        Some(cyclesql_obs::AttrValue::Str(s)) if s == "shed"
                    )
            })
            .count();
        assert_eq!(
            shed_roots, shed,
            "every shed request left an error root span"
        );
    }

    /// Panics while verifying one question; accepts every other.
    struct PanicOn(String);
    impl Verifier for PanicOn {
        fn verify(&self, input: &VerifyInput<'_>) -> Verdict {
            assert_ne!(input.question, self.0, "verifier bug on this question");
            Verdict {
                entails: true,
                score: 1.0,
            }
        }
        fn name(&self) -> &'static str {
            "panic-on"
        }
    }

    #[test]
    fn a_panicking_request_costs_one_internal_error_not_the_worker() {
        let suite = quick_suite();
        let items: Vec<Arc<BenchmarkItem>> = suite.dev.iter().cloned().map(Arc::new).collect();
        let target = Arc::clone(&items[0]);
        let others: Vec<_> = items
            .iter()
            .filter(|i| i.question != target.question)
            .take(5)
            .cloned()
            .collect();
        let engine = ServiceEngine::start(
            Arc::new(Catalog::from_suites([&suite])),
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            CycleSql::new(LoopVerifier::Custom(Box::new(PanicOn(
                target.question.clone(),
            )))),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        // A dead worker drops the job and its completion: `recv` then
        // fails instead of waiting forever.
        let call = |item: &Arc<BenchmarkItem>| {
            let (tx, rx) = std::sync::mpsc::channel();
            let request = ServeRequest {
                item: Arc::clone(item),
            };
            engine.submit_with(request, None, move |r| tx.send(r).unwrap());
            rx.recv().expect("the request completed")
        };
        assert_eq!(call(&target).unwrap_err(), ServeError::Internal);
        // The one worker survived: it serves every later request.
        for item in &others {
            assert!(call(item).unwrap().accepted, "{}", item.id);
        }
        assert_eq!(call(&target).unwrap_err(), ServeError::Internal);
        let snap = engine.shutdown();
        assert_eq!(snap.panics, 2);
        assert_eq!(snap.completed, others.len() as u64 + 2);
        assert_eq!(snap.admitted, snap.completed);
    }

    #[test]
    fn submit_with_completes_every_outcome_exactly_once() {
        let (engine, items) = slow_engine(
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                policy: AdmissionPolicy::Shed,
                ..ServeConfig::default()
            },
            Duration::from_millis(40),
            true,
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let admitted: Vec<bool> = (0..6)
            .map(|i| {
                let tx = tx.clone();
                let on = std::thread::current().id();
                engine.submit_with(
                    ServeRequest {
                        item: Arc::clone(&items[i % items.len()]),
                    },
                    None,
                    move |r: Result<ServeResponse, ServeError>| {
                        let refused_here = std::thread::current().id() == on;
                        tx.send((i, r.map(|_| ()), refused_here)).unwrap();
                    },
                )
            })
            .collect();
        drop(tx);
        let snap = engine.shutdown();
        let mut outcomes: Vec<_> = rx.iter().collect();
        outcomes.sort_by_key(|(i, _, _)| *i);
        assert_eq!(outcomes.len(), 6, "one completion per submit");
        for ((i, result, refused_here), admitted) in outcomes.into_iter().zip(&admitted) {
            // Admitted requests complete on a worker; sheds on the
            // submitting thread, before `submit_with` returned.
            assert_eq!(result.is_ok(), *admitted, "request {i}");
            assert_eq!(refused_here, !admitted, "request {i}");
            if !admitted {
                assert_eq!(result, Err(ServeError::Overloaded));
            }
        }
        let shed = admitted.iter().filter(|a| !**a).count() as u64;
        assert!(shed >= 3, "burst mostly shed, got {shed}");
        assert_eq!((snap.shed, snap.completed), (shed, 6 - shed));
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let (engine, items) = slow_engine(
            ServeConfig {
                workers: 2,
                queue_capacity: 16,
                ..ServeConfig::default()
            },
            Duration::from_millis(10),
            true,
        );
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                engine
                    .submit(ServeRequest {
                        item: Arc::clone(&items[i % items.len()]),
                    })
                    .unwrap()
            })
            .collect();
        let snap = engine.shutdown();
        assert_eq!(
            snap.completed, 6,
            "every admitted request served before exit"
        );
        for t in tickets {
            assert!(t.wait().is_ok(), "tickets fulfilled even after shutdown");
        }
    }
}
