//! Wire-level protocol tests against a live server on loopback:
//! malformed framing, limits, split reads, keep-alive, timeouts, the
//! drain protocol as a client observes it, and the worker-written answer:
//! order, connection lifetime, panics and the gauges that follow it.

use cyclesql_benchgen::{build_spider_suite, BenchmarkSuite, SuiteConfig, Variant};
use cyclesql_core::{CycleSql, LoopVerifier};
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_net::{encode_query, HttpClient, HttpLimits, NetConfig, NetServer};
use cyclesql_nli::{Verdict, Verifier, VerifyInput};
use cyclesql_serve::{Catalog, ServeConfig, ServiceEngine};
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn suite() -> BenchmarkSuite {
    build_spider_suite(
        Variant::Spider,
        SuiteConfig {
            seed: 0x4E7,
            train_per_template: 1,
            eval_per_template: 1,
        },
    )
}

fn start_server(config: NetConfig, suite: &BenchmarkSuite) -> NetServer {
    let catalog = Catalog::from_suites([suite]);
    NetServer::start(
        "127.0.0.1:0",
        config,
        &catalog,
        |_, slice| {
            ServiceEngine::start(
                slice,
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                CycleSql::new(LoopVerifier::Oracle),
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
            )
        },
        None,
    )
    .expect("bind loopback")
}

/// A verifier that sleeps, so a request's service time is controllable
/// from the test.
struct SlowVerifier(Duration);

impl Verifier for SlowVerifier {
    fn verify(&self, _input: &VerifyInput<'_>) -> Verdict {
        std::thread::sleep(self.0);
        Verdict {
            entails: true,
            score: 1.0,
        }
    }
    fn name(&self) -> &'static str {
        "slow"
    }
}

#[test]
fn malformed_request_lines_get_400_and_close() {
    let suite = suite();
    let server = start_server(NetConfig::default(), &suite);
    for wire in [
        &b"GARBAGE\r\n\r\n"[..],
        b"GET noslash HTTP/1.1\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"POST /v1/query HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
    ] {
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        client.send_raw(wire).unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!(resp.status, 400, "{:?}", String::from_utf8_lossy(wire));
        assert!(resp.closes(), "framing errors close the connection");
        assert!(resp.body_str().contains("\"error\""));
    }
    assert_eq!(server.net_metrics().parse_errors, 4);
}

#[test]
fn oversized_heads_and_bodies_get_431_and_413() {
    let suite = suite();
    let server = start_server(
        NetConfig {
            limits: HttpLimits {
                max_head_bytes: 256,
                max_body_bytes: 64,
            },
            ..NetConfig::default()
        },
        &suite,
    );

    // Head past the limit, no terminator in sight: 431.
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let mut wire = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
    wire.extend(std::iter::repeat_n(b'a', 512));
    client.send_raw(&wire).unwrap();
    assert_eq!(client.read_response().unwrap().status, 431);

    // Declared body past the limit: 413 before the body even arrives.
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client
        .send_raw(b"POST /v1/query HTTP/1.1\r\ncontent-length: 65\r\n\r\n")
        .unwrap();
    assert_eq!(client.read_response().unwrap().status, 413);

    // Transfer-encoding is not spoken here: 501.
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client
        .send_raw(b"POST /v1/query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
        .unwrap();
    assert_eq!(client.read_response().unwrap().status, 501);
}

#[test]
fn byte_at_a_time_writes_still_parse() {
    let suite = suite();
    let server = start_server(NetConfig::default(), &suite);
    let body = encode_query(&suite.dev[0]);
    let wire = format!(
        "POST /v1/query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    for b in wire.as_bytes() {
        client.send_raw(std::slice::from_ref(b)).unwrap();
    }
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("\"sql\""));
    assert!(
        resp.header("x-cyclesql-shard").is_some(),
        "routing metadata travels in headers"
    );
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let suite = suite();
    let server = start_server(NetConfig::default(), &suite);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    for i in 0..3 {
        let body = encode_query(&suite.dev[i % suite.dev.len()]);
        let resp = client.request("POST", "/v1/query", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "request {i} on the same connection");
        assert!(!resp.closes());
    }
    let health = client.request("GET", "/v1/health", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_str().contains("\"status\":\"ok\""));
    assert_eq!(
        server.net_metrics().connections_accepted,
        1,
        "all requests shared one connection"
    );
}

#[test]
fn unknown_paths_and_wrong_methods_are_typed() {
    let suite = suite();
    let server = start_server(NetConfig::default(), &suite);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.request("GET", "/nope", None).unwrap().status, 404);
    assert_eq!(
        client.request("GET", "/v1/query", None).unwrap().status,
        405,
        "query is POST-only"
    );
    assert_eq!(
        client
            .request("POST", "/metrics", Some("{}"))
            .unwrap()
            .status,
        405
    );
    let resp = client
        .request("POST", "/v1/query", Some("{\"db\":\"x\"}"))
        .unwrap();
    assert_eq!(resp.status, 400, "missing question");
    let resp = client
        .request(
            "POST",
            "/v1/query",
            Some("{\"db\":\"no_such_db\",\"question\":\"q\"}"),
        )
        .unwrap();
    assert_eq!(resp.status, 404, "unrouted database");
}

#[test]
fn idle_connections_time_out_and_stalled_requests_get_408() {
    let suite = suite();
    let server = start_server(
        NetConfig {
            idle_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
        &suite,
    );

    // Fully idle connection: closed silently.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).unwrap();
    assert_eq!(n, 0, "idle connection closed without a response");

    // Half a request, then silence: 408 and close.
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client.send_raw(b"POST /v1/query HTTP/1.1\r\ncont").unwrap();
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 408);
    assert!(resp.closes());
    assert_eq!(server.net_metrics().timeouts, 1);
}

#[test]
fn a_connection_past_the_cap_gets_one_503_and_one_count() {
    let suite = suite();
    let server = start_server(
        NetConfig {
            max_connections: 2,
            idle_timeout: Duration::from_secs(30),
            ..NetConfig::default()
        },
        &suite,
    );
    // The acceptor takes connections in arrival order, so the two held
    // ones fill both slots before the third is looked at.
    let held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    let mut third = HttpClient::connect(server.local_addr()).unwrap();
    let resp = third.read_response().unwrap();
    assert_eq!(resp.status, 503);
    assert!(
        resp.body_str().contains("overloaded"),
        "{}",
        resp.body_str()
    );
    assert!(resp.closes());
    assert!(third.read_response().is_err(), "one answer, then close");
    let net = server.net_metrics();
    assert_eq!(net.connections_rejected, 1);
    assert_eq!(net.connections_accepted, 2);
    drop(held);
}

#[test]
fn pipelined_request_after_drain_begins_is_rejected_while_first_completes() {
    let suite = suite();
    let catalog = Catalog::from_suites([&suite]);
    // 300ms per request: the drain flag flips while request 1 is in the
    // engine, well before the handler looks at pipelined request 2.
    let server = NetServer::start(
        "127.0.0.1:0",
        NetConfig::default(),
        &catalog,
        |_, slice| {
            ServiceEngine::start(
                slice,
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                CycleSql::new(LoopVerifier::Custom(Box::new(SlowVerifier(
                    Duration::from_millis(300),
                )))),
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
            )
        },
        None,
    )
    .unwrap();

    let body = encode_query(&suite.dev[0]);
    let one = format!(
        "POST /v1/query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client.send_raw(one.repeat(2).as_bytes()).unwrap();

    std::thread::sleep(Duration::from_millis(100));
    server.begin_drain();

    let first = client.read_response().unwrap();
    assert_eq!(first.status, 200, "in-flight request completed");
    let second = client.read_response().unwrap();
    assert_eq!(second.status, 503, "pipelined request refused after drain");
    assert!(second.closes());
    assert!(second.header("retry-after").is_some());
    assert!(second.body_str().contains("draining"));

    let report = server.drain(Duration::from_secs(10));
    assert_eq!(report.net.queries_ok, 1);
    assert_eq!(report.net.drain_rejected, 1);
    assert_eq!(report.forced_connections, 0);
}

#[test]
fn malformed_traceparent_is_ignored_never_rejected() {
    use cyclesql_net::NetObs;
    use cyclesql_obs::{MemorySink, ObsCounters, SpanSink, Tracer};

    let suite = suite();
    let catalog = Catalog::from_suites([&suite]);
    let counters = Arc::new(ObsCounters::default());
    let sink = Arc::new(MemorySink::new(4096, Arc::clone(&counters)));
    let tracer = Arc::new(Tracer::new(
        Arc::clone(&sink) as Arc<dyn SpanSink>,
        counters,
    ));
    let server = NetServer::start(
        "127.0.0.1:0",
        NetConfig::default(),
        &catalog,
        |_, slice| {
            ServiceEngine::start_traced(
                slice,
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                CycleSql::new(LoopVerifier::Oracle),
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
                Arc::clone(&tracer),
                false,
            )
        },
        Some(NetObs {
            tracer: Arc::clone(&tracer),
            spans: Some(Arc::clone(&sink)),
        }),
    )
    .unwrap();

    let body = encode_query(&suite.dev[0]);
    for garbage in [
        "not-a-traceparent",
        "00-zzzz-yyyy-01",
        "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
        "00-00000000000000000000000000000000-b7ad6b7169203331-01",
    ] {
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let wire = format!(
            "POST /v1/query HTTP/1.1\r\nhost: t\r\ntraceparent: {garbage}\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        client.send_raw(wire.as_bytes()).unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!(resp.status, 200, "bad traceparent {garbage:?} still served");
        // A fresh trace was minted: the echoed id parses and is non-zero.
        let echoed = resp
            .header("x-cyclesql-trace-id")
            .expect("trace id echoed even for malformed inbound context");
        let id = cyclesql_obs::parse_trace_id(echoed).expect("echoed id is hex");
        assert_ne!(id, 0);
    }

    // A well-formed header, by contrast, is propagated verbatim.
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let wire = format!(
        "POST /v1/query HTTP/1.1\r\nhost: t\r\n\
         traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
    client.send_raw(wire.as_bytes()).unwrap();
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("x-cyclesql-trace-id"),
        Some("8448eb211c80319c"),
        "low 64 bits of the wire trace id echoed"
    );
    drop(client);
    server.drain(Duration::from_secs(10));
}

/// Starts a one-shard, one-worker server whose loop runs `verifier`.
fn start_with_verifier(
    config: NetConfig,
    suite: &BenchmarkSuite,
    verifier: impl Fn() -> Box<dyn Verifier>,
) -> NetServer {
    let catalog = Catalog::from_suites([suite]);
    NetServer::start(
        "127.0.0.1:0",
        config,
        &catalog,
        |_, slice| {
            ServiceEngine::start(
                slice,
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                CycleSql::new(LoopVerifier::Custom(verifier())),
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
            )
        },
        None,
    )
    .expect("bind loopback")
}

fn query_wire(item: &cyclesql_benchgen::BenchmarkItem, extra_headers: &str) -> String {
    let body = encode_query(item);
    format!(
        "POST /v1/query HTTP/1.1\r\nhost: t\r\n{extra_headers}content-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Polls `cond` for up to two seconds.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let until = std::time::Instant::now() + Duration::from_secs(2);
    while !cond() {
        if std::time::Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// A verifier that holds every request until the test opens the gate.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    fn open(&self) {
        if let Ok(mut open) = self.open.lock() {
            *open = true;
        }
        self.opened.notify_all();
    }
}

/// Opens the gate when dropped, so a failed assertion cannot leave the
/// worker held and the server's shutdown waiting for it.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

struct GatedVerifier(Arc<Gate>);

impl Verifier for GatedVerifier {
    fn verify(&self, _input: &VerifyInput<'_>) -> Verdict {
        self.0.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.0.open.lock().unwrap();
        while !*open {
            open = self.0.opened.wait(open).unwrap();
        }
        Verdict {
            entails: true,
            score: 1.0,
        }
    }
    fn name(&self) -> &'static str {
        "gated"
    }
}

#[test]
fn pipelined_queries_come_back_in_order_identical_to_single_answers() {
    let suite = suite();
    let server = start_server(NetConfig::default(), &suite);
    let items: Vec<_> = suite.dev.iter().take(4).collect();
    let alone: Vec<Vec<u8>> = items
        .iter()
        .map(|item| {
            let mut client = HttpClient::connect(server.local_addr()).unwrap();
            client.send_raw(query_wire(item, "").as_bytes()).unwrap();
            let resp = client.read_response().unwrap();
            assert_eq!(resp.status, 200, "{}", item.id);
            resp.body
        })
        .collect();
    let wire: String = items.iter().map(|item| query_wire(item, "")).collect();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client.send_raw(wire.as_bytes()).unwrap();
    for (item, expected) in items.iter().zip(&alone) {
        let resp = client.read_response().unwrap();
        assert_eq!(resp.status, 200, "{}", item.id);
        assert_eq!(
            &resp.body, expected,
            "{}: pipelined answer differs",
            item.id
        );
    }
    assert_eq!(server.net_metrics().queries_ok, 8);
}

#[test]
fn connection_close_query_gets_its_full_response_then_eof() {
    let suite = suite();
    let server = start_server(NetConfig::default(), &suite);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client
        .send_raw(query_wire(&suite.dev[0], "connection: close\r\n").as_bytes())
        .unwrap();
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.closes(), "the answer announces the close");
    assert!(resp.body_str().contains("\"explanation\""));
    let eof = client.read_response().unwrap_err();
    assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn a_query_slower_than_the_idle_timeout_is_still_answered() {
    let suite = suite();
    let server = start_with_verifier(
        NetConfig {
            idle_timeout: Duration::from_millis(100),
            ..NetConfig::default()
        },
        &suite,
        || Box::new(SlowVerifier(Duration::from_millis(300))),
    );
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let body = encode_query(&suite.dev[0]);
    for i in 0..2 {
        // The connection stays open across the slow answer, so the second
        // query travels on it too.
        let resp = client.request("POST", "/v1/query", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "query {i} outlived the idle clock");
        assert!(!resp.closes());
    }
    assert_eq!(server.net_metrics().connections_accepted, 1);
}

/// Records the name of every thread that runs the pipeline.
struct ThreadRecorder(Arc<Mutex<Vec<String>>>);

impl Verifier for ThreadRecorder {
    fn verify(&self, _input: &VerifyInput<'_>) -> Verdict {
        let name = std::thread::current().name().unwrap_or("").to_string();
        self.0.lock().unwrap().push(name);
        Verdict {
            entails: true,
            score: 1.0,
        }
    }
    fn name(&self) -> &'static str {
        "thread-recorder"
    }
}

#[test]
fn the_pipeline_runs_only_on_serve_workers() {
    let suite = suite();
    let names = Arc::new(Mutex::new(Vec::new()));
    let server = start_with_verifier(NetConfig::default(), &suite, || {
        Box::new(ThreadRecorder(Arc::clone(&names)))
    });
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    for item in suite.dev.iter().take(3) {
        let body = encode_query(item);
        assert_eq!(
            client
                .request("POST", "/v1/query", Some(&body))
                .unwrap()
                .status,
            200
        );
    }
    let wire: String = suite
        .dev
        .iter()
        .take(3)
        .map(|i| query_wire(i, ""))
        .collect();
    client.send_raw(wire.as_bytes()).unwrap();
    for _ in 0..3 {
        assert_eq!(client.read_response().unwrap().status, 200);
    }
    let names = names.lock().unwrap();
    assert!(names.len() >= 6, "{names:?}");
    assert!(
        names.iter().all(|n| n.starts_with("serve-worker-")),
        "pipeline ran off the worker pool: {names:?}"
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
fn a_panicking_query_gets_500_and_the_connection_serves_on() {
    let suite = suite();
    let target = suite.dev[0].clone();
    let other = suite
        .dev
        .iter()
        .find(|i| i.question != target.question)
        .unwrap();
    let question = target.question.clone();
    let server = start_with_verifier(NetConfig::default(), &suite, || {
        Box::new(PanicOn(question.clone()))
    });
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let failed = client
        .request("POST", "/v1/query", Some(&encode_query(&target)))
        .unwrap();
    assert_eq!(failed.status, 500);
    assert!(
        failed.body_str().contains("\"internal\""),
        "{}",
        failed.body_str()
    );
    assert!(!failed.closes(), "a panic does not cost the connection");
    let next = client
        .request("POST", "/v1/query", Some(&encode_query(other)))
        .unwrap();
    assert_eq!(next.status, 200, "the same connection answers on");
    let metrics = client.request("GET", "/metrics", None).unwrap();
    assert!(
        metrics
            .body_str()
            .contains("cyclesql_serve_panics_total{shard=\"0\"} 1\n"),
        "{}",
        metrics.body_str()
    );
    let report = server.drain(Duration::from_secs(10));
    assert_eq!(report.shard_metrics[0].1.panics, 1);
    assert_eq!(report.shard_metrics[0].1.completed, 2);
}

#[test]
fn the_router_gauge_counts_a_wire_request_until_it_is_answered() {
    let suite = suite();
    let gate = Arc::new(Gate::default());
    let server = start_with_verifier(NetConfig::default(), &suite, || {
        Box::new(GatedVerifier(Arc::clone(&gate)))
    });
    let _open = OpenOnDrop(Arc::clone(&gate));
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client
        .send_request("POST", "/v1/query", Some(&encode_query(&suite.dev[0])))
        .unwrap();
    assert!(eventually(|| gate.entered.load(Ordering::SeqCst) == 1));
    assert_eq!(server.sharded().outstanding(0), 1, "held request counts");
    gate.open();
    assert_eq!(client.read_response().unwrap().status, 200);
    assert!(
        eventually(|| server.sharded().outstanding(0) == 0),
        "answered request released the gauge"
    );
}

#[test]
fn a_pipelined_request_waits_for_the_previous_response_exactly_once() {
    let suite = suite();
    let gate = Arc::new(Gate::default());
    let server = start_with_verifier(NetConfig::default(), &suite, || {
        Box::new(GatedVerifier(Arc::clone(&gate)))
    });
    let _open = OpenOnDrop(Arc::clone(&gate));
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let wire = query_wire(&suite.dev[0], "") + &query_wire(&suite.dev[1], "");
    client.send_raw(wire.as_bytes()).unwrap();
    // The first request is held in the verifier; the second is parsed and
    // must wait for the first answer before it is handed off.
    assert!(eventually(
        || gate.entered.load(Ordering::SeqCst) == 1 && server.net_metrics().requests == 2
    ));
    assert_eq!(
        server.sharded().outstanding(0),
        1,
        "second not yet submitted"
    );
    gate.open();
    for _ in 0..2 {
        assert_eq!(client.read_response().unwrap().status, 200);
    }
    assert_eq!(server.net_metrics().inflight_waits, 1);
    let page = client.request("GET", "/metrics", None).unwrap();
    assert!(page
        .body_str()
        .contains("cyclesql_net_inflight_waits_total 1\n"));
}
