//! The TCP front door: an accept loop over `std::net::TcpListener`,
//! one thread per connection, keep-alive with idle timeouts, and a
//! graceful drain protocol.
//!
//! Connection threads read in short ticks (a small `set_read_timeout`)
//! so they observe the drain flag promptly without an async runtime:
//! once draining starts, idle keep-alive connections close, requests
//! mid-assembly are allowed to finish arriving and then refused with
//! `503`, and requests already dispatched to a shard run to completion.
//! [`NetServer::drain`] stops the acceptor, waits for in-flight
//! connections up to a grace period, then shuts every shard down —
//! which drains each engine's admitted queue before its workers exit.
//!
//! A query is admitted on its connection thread (read, parse, decode,
//! route, submit) and completed on the serve worker that ran it, which
//! encodes and writes the response itself. The connection thread goes
//! straight back to reading; it hands the next request to a worker, or
//! writes any answer of its own, only once the previous response is
//! written, so HTTP/1.1 answers leave in request order.

use crate::api::{encode_error, encode_response, ApiQuery};
use crate::debug::{
    flame_for_trace, query_param, render_requests_json, render_slow_json, render_telemetry_json,
};
use crate::http::{HttpError, HttpLimits, Request, RequestParser, Response};
use crate::metrics::{NetMetrics, NetMetricsSnapshot};
use crate::router::{RouteDecision, RouterConfig, ShardedEngine};
use cyclesql_obs::{
    format_trace_id, parse_trace_id, parse_traceparent, MemorySink, SharedSpan, Tracer,
};
use cyclesql_serve::{
    render_metrics_sharded, render_windows_sharded, Catalog, MetricsSnapshot, ServeError,
    ServeResponse, ServiceEngine,
};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a blocked connection read wakes to check the drain flag.
const READ_TICK: Duration = Duration::from_millis(25);

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// HTTP parser limits.
    pub limits: HttpLimits,
    /// Keep-alive connections idle longer than this close; a request that
    /// stays incomplete this long is answered `408` and closed.
    pub idle_timeout: Duration,
    /// Concurrent connection cap; excess connections get an immediate
    /// `503` and close.
    pub max_connections: usize,
    /// Shard routing configuration.
    pub router: RouterConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            limits: HttpLimits::default(),
            idle_timeout: Duration::from_secs(5),
            max_connections: 128,
            router: RouterConfig::default(),
        }
    }
}

/// Observability wiring for the front door: the tracer that mints `net`
/// root spans (honouring inbound `traceparent` headers), plus an optional
/// in-memory span ring that backs `GET /v1/debug/flame` — without the
/// ring the endpoint answers 404 for every trace.
pub struct NetObs {
    /// Root-span source for wire requests.
    pub tracer: Arc<Tracer>,
    /// Span ring the flame endpoint reads finished spans from. Point the
    /// tracer's sink chain at the same ring (directly or via a sampler)
    /// or the lookups will always miss.
    pub spans: Option<Arc<MemorySink>>,
}

struct NetShared {
    sharded: ShardedEngine,
    tracer: Option<Arc<Tracer>>,
    spans: Option<Arc<MemorySink>>,
    limits: HttpLimits,
    idle_timeout: Duration,
    max_connections: usize,
    local: SocketAddr,
    draining: AtomicBool,
    drain_gate: Mutex<bool>,
    drain_cv: Condvar,
    active: Mutex<usize>,
    active_cv: Condvar,
    /// Shared with the completions that serve workers run.
    metrics: Arc<NetMetrics>,
}

impl NetShared {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.drain_gate.lock().expect("drain gate poisoned") = true;
        self.drain_cv.notify_all();
        // Wake the acceptor out of its blocking accept; it sees the flag
        // and exits instead of handling this connection.
        let _ = TcpStream::connect(self.local);
    }
}

/// What the drain left behind.
#[derive(Debug)]
pub struct DrainReport {
    /// Connections still open when the grace period expired (0 on a
    /// fully graceful drain).
    pub forced_connections: usize,
    /// Final per-shard engine metrics.
    pub shard_metrics: Vec<(usize, MetricsSnapshot)>,
    /// Final wire-tier counters.
    pub net: NetMetricsSnapshot,
}

/// A running front door. Dropping it drains abruptly (no connection
/// grace); call [`NetServer::drain`] for the graceful path.
pub struct NetServer {
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
    local: SocketAddr,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), slices
    /// `catalog` across the configured shards — `make_engine` builds each
    /// shard's engine from its catalog slice — and starts accepting.
    /// `obs`, when given, opens one `net` root span per query with the
    /// engine's `serve` span nested under it; an inbound `traceparent`
    /// (or `x-cyclesql-traceparent`) header supplies the trace id, which
    /// is echoed back as `x-cyclesql-trace-id`.
    pub fn start(
        addr: &str,
        config: NetConfig,
        catalog: &Catalog,
        make_engine: impl FnMut(usize, Arc<Catalog>) -> ServiceEngine,
        obs: Option<NetObs>,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let sharded = ShardedEngine::build(catalog, &config.router, make_engine);
        let (tracer, spans) = match obs {
            Some(o) => (Some(o.tracer), o.spans),
            None => (None, None),
        };
        let shared = Arc::new(NetShared {
            sharded,
            tracer,
            spans,
            limits: config.limits,
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections.max(1),
            local,
            draining: AtomicBool::new(false),
            drain_gate: Mutex::new(false),
            drain_cv: Condvar::new(),
            active: Mutex::new(0),
            active_cv: Condvar::new(),
            metrics: Arc::new(NetMetrics::default()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(NetServer {
            shared,
            acceptor: Some(acceptor),
            local,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The shard router (for tests and occupancy inspection).
    pub fn sharded(&self) -> &ShardedEngine {
        &self.shared.sharded
    }

    /// Point-in-time wire-tier counters.
    pub fn net_metrics(&self) -> NetMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Flips the server into draining mode: the acceptor stops, idle
    /// connections close, new requests are refused with `503`. Idempotent;
    /// also reachable over the wire as `POST /v1/drain`.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether draining has started.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Blocks until draining starts (via [`NetServer::begin_drain`] or a
    /// wire `POST /v1/drain`). This is `netd`'s main-thread parking spot.
    pub fn wait_until_draining(&self) {
        let mut gate = self.shared.drain_gate.lock().expect("drain gate poisoned");
        while !*gate {
            gate = self
                .shared
                .drain_cv
                .wait(gate)
                .expect("drain gate poisoned");
        }
    }

    /// Graceful shutdown: begin draining, wait up to `grace` for open
    /// connections to finish their in-flight requests, then shut every
    /// shard down (each engine drains its admitted queue). Returns the
    /// final metrics; `forced_connections` counts connections that
    /// outlived the grace period.
    pub fn drain(mut self, grace: Duration) -> DrainReport {
        self.shared.begin_drain();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let deadline = Instant::now() + grace;
        let mut active = self.shared.active.lock().expect("active gauge poisoned");
        while *active > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .shared
                .active_cv
                .wait_timeout(active, deadline - now)
                .expect("active gauge poisoned");
            active = guard;
        }
        let forced_connections = *active;
        drop(active);
        DrainReport {
            forced_connections,
            shard_metrics: self.shared.sharded.shutdown_all(),
            net: self.shared.metrics.snapshot(),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Abrupt path (graceful `drain` already emptied these): stop the
        // acceptor and the shards; connection threads fail their submits
        // with `Shutdown` and exit on their next tick.
        self.shared.begin_drain();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.sharded.shutdown_all();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NetShared>) {
    loop {
        let (stream, remote) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.is_draining() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.is_draining() {
            // Either the self-wake from `begin_drain` or a late client;
            // both just close.
            return;
        }
        {
            let mut active = shared.active.lock().expect("active gauge poisoned");
            if *active >= shared.max_connections {
                drop(active);
                shared
                    .metrics
                    .connections_rejected
                    .fetch_add(1, Ordering::Relaxed);
                let mut stream = stream;
                let _ = Response::json(503, encode_error("overloaded", "connection limit reached"))
                    .closing()
                    .write_to(&mut stream);
                continue;
            }
            *active += 1;
        }
        shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("net-conn".into())
            .spawn(move || {
                let _release = ActiveConn(&conn_shared);
                handle_conn(&conn_shared, stream, remote);
            });
        if spawned.is_err() {
            // Could not spawn: release the slot we reserved.
            *shared.active.lock().expect("active gauge poisoned") -= 1;
            shared.active_cv.notify_all();
        }
    }
}

/// RAII active-connection slot; notifies drain waiters on release.
struct ActiveConn<'a>(&'a NetShared);

impl Drop for ActiveConn<'_> {
    fn drop(&mut self) {
        *self.0.active.lock().expect("active gauge poisoned") -= 1;
        self.0.active_cv.notify_all();
    }
}

/// One client connection, shared by its thread and the serve worker that
/// owes it a response. The thread reads, parses and writes its own
/// answers; a query's answer is written by the worker that ran it. The
/// turn allows one response in flight: until it is written, the thread
/// writes nothing and submits nothing, so answers leave in request order.
struct Conn {
    stream: TcpStream,
    turn: Mutex<Turn>,
    turn_free: Condvar,
}

#[derive(Default)]
struct Turn {
    /// A worker owes this connection a response.
    in_flight: bool,
    /// The connection thread is parked until that response is written.
    waiting: bool,
    /// The written response closed the connection (it said so, or the
    /// write failed).
    closed: bool,
}

impl Conn {
    /// The turn's flags stay consistent even when a completion panicked
    /// holding the lock, so a poisoned lock is used as it is.
    fn turn(&self) -> MutexGuard<'_, Turn> {
        self.turn.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn in_flight(&self) -> bool {
        self.turn().in_flight
    }

    /// Parks until no response is in flight. Returns whether it had to
    /// wait, or `None` once a written response closed the connection.
    fn settle(&self) -> Option<bool> {
        let mut turn = self.turn();
        let waited = turn.in_flight;
        while turn.in_flight {
            turn.waiting = true;
            turn = self
                .turn_free
                .wait(turn)
                .unwrap_or_else(PoisonError::into_inner);
        }
        turn.waiting = false;
        (!turn.closed).then_some(waited)
    }

    /// Marks a response in flight; call before handing the request off,
    /// and hand the returned debt to whoever completes it.
    fn hand_off(self: &Arc<Self>) -> Owed {
        self.turn().in_flight = true;
        Owed {
            conn: Arc::clone(self),
            paid: false,
        }
    }

    /// Writes the in-flight response — or, with none, abandons it — and
    /// gives the turn back. A closing response, a failed write, or an
    /// abandoned answer shuts the socket down, which also ends the
    /// connection thread's read.
    fn complete(&self, resp: Option<&Response>) {
        let mut turn = self.turn();
        let close = resp.is_none_or(|resp| resp.write_to(&mut &self.stream).is_err() || resp.close);
        if close {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        turn.in_flight = false;
        turn.closed |= close;
        if turn.waiting {
            self.turn_free.notify_one();
        }
    }
}

/// The response a worker owes a connection ([`Conn::hand_off`]). Dropped
/// unpaid — its completion panicked — it closes the connection, so the
/// connection thread waiting for its turn wakes up and exits.
struct Owed {
    conn: Arc<Conn>,
    paid: bool,
}

impl Owed {
    fn complete(mut self, resp: &Response) {
        self.conn.complete(Some(resp));
        self.paid = true;
    }
}

impl Drop for Owed {
    fn drop(&mut self) {
        if !self.paid {
            self.conn.complete(None);
        }
    }
}

fn handle_conn(shared: &NetShared, stream: TcpStream, remote: SocketAddr) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    // A client that stops reading holds a serve worker in its write for
    // at most this long.
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    let conn = Arc::new(Conn {
        stream,
        turn: Mutex::default(),
        turn_free: Condvar::new(),
    });
    serve_conn(shared, &conn, remote);
    // Every exit waits for the response still in flight, so the drain's
    // active-connection count covers it.
    conn.settle();
}

fn serve_conn(shared: &NetShared, conn: &Arc<Conn>, remote: SocketAddr) {
    let mut parser = RequestParser::new(shared.limits);
    let mut tmp = [0u8; 4096];
    loop {
        // Assemble one request, ticking so drain and idle timeouts are
        // observed while blocked on the socket.
        let mut waited = Duration::ZERO;
        let req: Request = loop {
            match parser.advance() {
                Ok(Some(req)) => break req,
                Ok(None) => {}
                Err(e) => return reject_parse(shared, conn, &e),
            }
            if shared.is_draining() && parser.is_idle() {
                // Idle keep-alive connection during drain: just close.
                return;
            }
            match (&conn.stream).read(&mut tmp) {
                Ok(0) => return,
                Ok(n) => {
                    waited = Duration::ZERO;
                    match parser.push(&tmp[..n]) {
                        Ok(Some(req)) => break req,
                        Ok(None) => {}
                        Err(e) => return reject_parse(shared, conn, &e),
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // A connection with a response in flight is not idle:
                    // its clock starts when that response is written.
                    waited = if conn.in_flight() {
                        Duration::ZERO
                    } else {
                        waited + READ_TICK
                    };
                    if waited >= shared.idle_timeout {
                        if parser.is_idle() {
                            return;
                        }
                        // Mid-request stall: tell the client before closing.
                        shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                        let _ = Response::json(
                            408,
                            encode_error("timeout", "request did not complete in time"),
                        )
                        .closing()
                        .write_to(&mut &conn.stream);
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .assemble
            .record(Duration::from_micros(req.assemble_us));
        // One request in flight per connection: this one waits for the
        // previous response to be written.
        match conn.settle() {
            None => return,
            Some(true) => {
                shared
                    .metrics
                    .inflight_waits
                    .fetch_add(1, Ordering::Relaxed);
            }
            Some(false) => {}
        }
        if shared.is_draining() && !drain_exempt(&req) {
            // A request that arrived (or was pipelined) after drain began:
            // refuse it; the client should retry against another instance.
            // Read-only scrape paths stay answerable (see `drain_exempt`)
            // so an operator can watch the drain itself.
            shared
                .metrics
                .drain_rejected
                .fetch_add(1, Ordering::Relaxed);
            let mut resp = Response::json(503, encode_error("draining", "server is draining"));
            resp.retry_after = Some(1);
            let _ = resp.closing().write_to(&mut &conn.stream);
            return;
        }
        let keep_alive = req.keep_alive;
        match dispatch(shared, conn, &req, remote) {
            Some(mut resp) => {
                if !keep_alive {
                    resp.close = true;
                }
                if resp.write_to(&mut &conn.stream).is_err() || resp.close {
                    return;
                }
            }
            // The answer is in flight; a worker writes it.
            None if !keep_alive => return,
            None => {}
        }
    }
}

fn reject_parse(shared: &NetShared, conn: &Conn, e: &HttpError) {
    shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
    if conn.settle().is_some() {
        let _ = Response::json(e.status(), encode_error("http", e.detail()))
            .closing()
            .write_to(&mut &conn.stream);
    }
}

/// Strips the query string off a request target.
fn path_only(target: &str) -> &str {
    target.split('?').next().unwrap_or(target)
}

/// Read-only observation paths keep answering during drain: health,
/// metrics, and the debug endpoints carry no work into the engines and
/// are exactly what an operator scrapes to watch a drain complete. The
/// connection still closes once idle, so drain converges.
fn drain_exempt(req: &Request) -> bool {
    if req.method != "GET" {
        return false;
    }
    let path = path_only(&req.path);
    path == "/v1/health" || path == "/metrics" || path.starts_with("/v1/debug/")
}

/// Answers a request on the connection thread, or returns `None` when a
/// query went to a worker, which writes its answer.
fn dispatch(
    shared: &NetShared,
    conn: &Arc<Conn>,
    req: &Request,
    remote: SocketAddr,
) -> Option<Response> {
    let path = path_only(&req.path);
    Some(match (req.method.as_str(), path) {
        ("GET", "/v1/health") => Response::json(200, health_body(shared)),
        ("GET", "/metrics") => Response::text(200, metrics_page(shared)),
        ("POST", "/v1/query") => return query(shared, conn, req, remote),
        ("GET", "/v1/debug/requests") => debug_requests(shared, req),
        ("GET", "/v1/debug/slow") => debug_slow(shared, req),
        ("GET", "/v1/debug/flame") => debug_flame(shared, req),
        ("GET", "/v1/debug/telemetry") => {
            Response::json(200, render_telemetry_json(&shared.sharded.telemetry()))
        }
        ("POST", "/v1/drain") => {
            shared.begin_drain();
            Response::json(200, "{\"draining\":true}".into()).closing()
        }
        (
            _,
            "/v1/health"
            | "/metrics"
            | "/v1/query"
            | "/v1/drain"
            | "/v1/debug/requests"
            | "/v1/debug/slow"
            | "/v1/debug/flame"
            | "/v1/debug/telemetry",
        ) => Response::json(
            405,
            encode_error("method_not_allowed", "wrong method for this path"),
        ),
        _ => Response::json(404, encode_error("not_found", "unknown path")),
    })
}

/// `GET /v1/debug/requests[?limit=N]`: the per-shard rings of recent
/// request summaries, newest last.
fn debug_requests(shared: &NetShared, req: &Request) -> Response {
    let limit = query_param(&req.path, "limit").and_then(|v| v.parse::<usize>().ok());
    Response::json(
        200,
        render_requests_json(&shared.sharded.recent_requests(), limit),
    )
}

/// `GET /v1/debug/slow?threshold_ms=N`: buffered requests at or above the
/// threshold (default 100ms), with per-stage attribution.
fn debug_slow(shared: &NetShared, req: &Request) -> Response {
    let threshold_us = query_param(&req.path, "threshold_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100)
        .saturating_mul(1_000);
    Response::json(
        200,
        render_slow_json(&shared.sharded.slow_requests(threshold_us), threshold_us),
    )
}

/// `GET /v1/debug/flame?trace_id=<16 hex>`: a text flamegraph of one
/// trace from the debug span ring. 404 when the ring is absent, the id is
/// malformed, or no span of that trace is (still) buffered.
fn debug_flame(shared: &NetShared, req: &Request) -> Response {
    let Some(spans) = &shared.spans else {
        return Response::json(
            404,
            encode_error("no_span_ring", "server started without a debug span ring"),
        );
    };
    let Some(trace_id) = query_param(&req.path, "trace_id").and_then(parse_trace_id) else {
        return Response::json(
            400,
            encode_error("bad_request", "trace_id must be up to 16 hex digits"),
        );
    };
    match flame_for_trace(&spans.records(), trace_id) {
        Some(flame) => Response::text(200, flame),
        None => Response::json(
            404,
            encode_error("unknown_trace", "no spans buffered for this trace id"),
        ),
    }
}

fn health_body(shared: &NetShared) -> String {
    format!(
        "{{\"status\":\"{}\",\"shards\":{},\"databases\":{}}}",
        if shared.is_draining() {
            "draining"
        } else {
            "ok"
        },
        shared.sharded.shard_count(),
        shared.sharded.database_count(),
    )
}

/// The `/metrics` page: per-shard engine families (shard-labelled), the
/// rolling-window telemetry with trace exemplars (when enabled), plus
/// the wire-tier families.
fn metrics_page(shared: &NetShared) -> String {
    let shards = shared.sharded.metrics();
    let mut page = render_metrics_sharded(&shards);
    let windows = shared.sharded.telemetry();
    if !windows.is_empty() {
        page.push_str(&render_windows_sharded(&windows));
    }
    page.push_str(&shared.metrics.render());
    page
}

/// Admits a query on the connection thread: decode, route, and hand it to
/// a shard, whose worker completes it ([`answer`], then the write). A
/// query that fails before the hand-off is answered here.
fn query(
    shared: &NetShared,
    conn: &Arc<Conn>,
    req: &Request,
    remote: SocketAddr,
) -> Option<Response> {
    // The `net` root span covers wire handling; the engine opens its
    // `serve` span as a child, so one trace follows the request across
    // both tiers and threads. An inbound trace context (our own
    // `x-cyclesql-traceparent`, else standard W3C `traceparent`) supplies
    // the trace id so the client's trace and ours stitch together; a
    // malformed header is ignored — a fresh trace is minted and the
    // request served normally, never rejected.
    let inbound = req
        .header("x-cyclesql-traceparent")
        .or_else(|| req.header("traceparent"))
        .and_then(parse_traceparent);
    let mut trace_id = None;
    let span = shared.tracer.as_ref().map(|t| {
        let mut s = match inbound {
            Some(id) => {
                let mut s = t.root_for_trace("net", id);
                s.set("trace_propagated", true);
                s
            }
            None => t.root("net"),
        };
        trace_id = Some(s.trace_id());
        s.set("remote", remote.to_string());
        s.set("assemble_us", req.assemble_us);
        SharedSpan::new(s)
    });

    let q = match ApiQuery::parse(&req.body) {
        Ok(q) => q,
        Err(msg) => {
            finish(span, 400, "bad_request");
            return Some(with_trace_id(
                Response::json(400, encode_error("bad_request", &msg)),
                trace_id,
            ));
        }
    };
    let decision = match shared.sharded.route(&q.db) {
        Ok(d) => d,
        Err(_) => {
            shared
                .metrics
                .queries_unknown_db
                .fetch_add(1, Ordering::Relaxed);
            finish(span, 404, "unknown_db");
            return Some(with_trace_id(
                Response::json(
                    404,
                    encode_error("unknown_database", "no such database in the catalog"),
                ),
                trace_id,
            ));
        }
    };
    if let Some(s) = &span {
        s.set("shard", decision.shard as u64);
        s.set("spilled", decision.spilled);
    }
    if decision.spilled {
        shared.metrics.spilled.fetch_add(1, Ordering::Relaxed);
    }
    let keep_alive = req.keep_alive;
    let (metrics, parent) = (Arc::clone(&shared.metrics), span.clone());
    let owed = conn.hand_off();
    shared
        .sharded
        .submit_on(decision, q.into_item(), parent, move |result| {
            let mut resp = answer(&metrics, result, span, decision, trace_id);
            if !keep_alive {
                resp.close = true;
            }
            owed.complete(&resp);
        });
    None
}

/// Records a query's wire outcome on its `net` span and finishes it.
fn finish(span: Option<SharedSpan>, status: u16, outcome: &'static str) {
    if let Some(s) = span {
        s.set("status", u64::from(status));
        s.set("outcome", outcome);
        if status >= 400 {
            s.set_error();
        }
        s.finish();
    }
}

/// Echoes the trace id on every query response, so the caller can fetch
/// `/v1/debug/flame?trace_id=<this>` afterwards.
fn with_trace_id(resp: Response, trace_id: Option<u64>) -> Response {
    match trace_id {
        Some(id) => resp.with_header("x-cyclesql-trace-id", format_trace_id(id)),
        None => resp,
    }
}

/// A routed query's response, built by whichever thread completes it:
/// the serve worker, or the connection thread when the shard refused it.
fn answer(
    metrics: &NetMetrics,
    result: Result<ServeResponse, ServeError>,
    span: Option<SharedSpan>,
    decision: RouteDecision,
    trace_id: Option<u64>,
) -> Response {
    let mut queue_wait_us = None;
    let (status, outcome, resp) = match result {
        Ok(resp) => {
            metrics.queries_ok.fetch_add(1, Ordering::Relaxed);
            let wait_us = resp.queue_wait.as_micros() as u64;
            if let Some(s) = &span {
                s.set("queue_wait_us", wait_us);
            }
            queue_wait_us = Some(wait_us);
            (200, "ok", Response::json(200, encode_response(&resp)))
        }
        Err(ServeError::Overloaded) => {
            metrics.queries_shed.fetch_add(1, Ordering::Relaxed);
            let mut resp = Response::json(
                503,
                encode_error("overloaded", "admission queue full, request shed"),
            );
            resp.retry_after = Some(1);
            (503, "shed", resp)
        }
        Err(ServeError::DeadlineExceeded) => {
            metrics.queries_deadline.fetch_add(1, Ordering::Relaxed);
            let resp = Response::json(
                504,
                encode_error("deadline_exceeded", "request exceeded its deadline"),
            );
            (504, "deadline", resp)
        }
        Err(ServeError::UnknownDatabase(_)) => {
            metrics.queries_unknown_db.fetch_add(1, Ordering::Relaxed);
            let resp = Response::json(
                404,
                encode_error("unknown_database", "no such database in the catalog"),
            );
            (404, "unknown_db", resp)
        }
        Err(ServeError::Shutdown) => {
            metrics.drain_rejected.fetch_add(1, Ordering::Relaxed);
            let resp =
                Response::json(503, encode_error("draining", "server is draining")).closing();
            (503, "shutdown", resp)
        }
        Err(ServeError::Internal) => {
            let resp = Response::json(
                500,
                encode_error("internal", "the request failed inside the server"),
            );
            (500, "internal", resp)
        }
    };
    finish(span, status, outcome);
    let resp = with_trace_id(
        resp.with_header("x-cyclesql-shard", decision.shard.to_string())
            .with_header("x-cyclesql-spilled", decision.spilled.to_string()),
        trace_id,
    );
    match queue_wait_us {
        Some(us) => resp.with_header("x-cyclesql-queue-wait-us", us.to_string()),
        None => resp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unpaid_answer_closes_the_connection_and_frees_its_turn() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn = Arc::new(Conn {
            stream,
            turn: Mutex::default(),
            turn_free: Condvar::new(),
        });
        let owed = conn.hand_off();
        assert!(conn.in_flight());
        drop(owed);
        // Settle on another thread, so a turn left shut fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let settling = Arc::clone(&conn);
        let settler = std::thread::spawn(move || tx.send(settling.settle()).unwrap());
        let settled = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            settled,
            Ok(None),
            "the turn is free and the connection closed"
        );
        settler.join().unwrap();
        // The socket was shut down: the client reads end of stream.
        let mut byte = [0u8; 1];
        assert_eq!((&client).read(&mut byte).unwrap(), 0);
    }
}
