//! Live-server tests for the debug introspection endpoints: wire trace
//! propagation into `/v1/debug/flame`, exemplars on `/metrics`,
//! shard-count-independent `/v1/debug/requests` aggregation, the
//! span-pipeline counters on a traced server's `/metrics`, and debug
//! scraping during drain.

use cyclesql_benchgen::{build_spider_suite, BenchmarkSuite, SuiteConfig, Variant};
use cyclesql_core::{CycleSql, LoopVerifier};
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_net::{encode_query, HttpClient, Json, NetConfig, NetObs, NetServer, RouterConfig};
use cyclesql_nli::{AlwaysAcceptVerifier, Verdict, Verifier, VerifyInput};
use cyclesql_obs::{MemorySink, ObsCounters, SpanSink, Tracer, WindowConfig};
use cyclesql_serve::{Catalog, ServeConfig, ServiceEngine};
use std::sync::Arc;
use std::time::Duration;

fn suite() -> BenchmarkSuite {
    build_spider_suite(
        Variant::Spider,
        SuiteConfig {
            seed: 0xDEB,
            train_per_template: 1,
            eval_per_template: 1,
        },
    )
}

/// A traced sharded server with a debug span ring and telemetry windows —
/// the full `netd --trace` wiring, on an ephemeral port.
fn start_traced(suite: &BenchmarkSuite, shards: usize) -> (NetServer, Arc<Tracer>) {
    let catalog = Catalog::from_suites([suite]);
    let counters = Arc::new(ObsCounters::default());
    let sink = Arc::new(MemorySink::new(65536, Arc::clone(&counters)));
    let tracer = Arc::new(Tracer::new(
        Arc::clone(&sink) as Arc<dyn SpanSink>,
        counters,
    ));
    let engine_tracer = Arc::clone(&tracer);
    let server = NetServer::start(
        "127.0.0.1:0",
        NetConfig {
            router: RouterConfig {
                shards,
                ..RouterConfig::default()
            },
            ..NetConfig::default()
        },
        &catalog,
        move |_, slice| {
            // A non-oracle verifier so the data-grounded feedback stages
            // (provenance, explain) actually run and appear in the flame.
            ServiceEngine::start_traced(
                slice,
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                CycleSql::new(LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier)),
                ServeConfig {
                    workers: 1,
                    window: Some(WindowConfig::default()),
                    ..ServeConfig::default()
                },
                Arc::clone(&engine_tracer),
                false,
            )
        },
        Some(NetObs {
            tracer: Arc::clone(&tracer),
            spans: Some(sink),
        }),
    )
    .expect("bind loopback");
    (server, tracer)
}

const TRACEPARENT: &str = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
const TRACE_HEX: &str = "8448eb211c80319c";

fn query_with_traceparent(client: &mut HttpClient, body: &str) -> cyclesql_net::HttpResponse {
    let wire = format!(
        "POST /v1/query HTTP/1.1\r\nhost: t\r\ntraceparent: {TRACEPARENT}\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
    client.send_raw(wire.as_bytes()).unwrap();
    client.read_response().unwrap()
}

/// The tentpole acceptance path: a traceparent-carrying query, then the
/// flamegraph of that exact trace id, then its exemplar on `/metrics`.
#[test]
fn wire_trace_flows_into_flame_and_metrics_exemplars() {
    let suite = suite();
    let (server, _tracer) = start_traced(&suite, 2);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let body = encode_query(&suite.dev[0]);
    let resp = query_with_traceparent(&mut client, &body);
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("x-cyclesql-trace-id"),
        Some(TRACE_HEX),
        "caller-supplied trace id echoed"
    );

    // The flamegraph of the echoed trace id: rooted at the caller's trace,
    // with the net → serve chain and the pipeline stage leaves.
    let flame = client
        .request(
            "GET",
            &format!("/v1/debug/flame?trace_id={TRACE_HEX}"),
            None,
        )
        .unwrap();
    assert_eq!(flame.status, 200);
    let text = flame.body_str().to_string();
    assert!(
        text.starts_with(&format!("trace {TRACE_HEX}")),
        "flame root carries the caller trace id:\n{text}"
    );
    let first_span_line = text.lines().nth(1).unwrap_or("");
    assert!(
        first_span_line.starts_with("net "),
        "net root span first:\n{text}"
    );
    assert!(text.contains("serve"), "serve child present:\n{text}");
    for leaf in ["execute", "provenance", "explain", "verify"] {
        assert!(text.contains(leaf), "{leaf} leaf present:\n{text}");
    }

    // An unknown trace id is a JSON 404, not an empty graph.
    let missing = client
        .request("GET", "/v1/debug/flame?trace_id=0123456789abcdef", None)
        .unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.body_str().contains("unknown_trace"));

    // /metrics carries at least one OpenMetrics exemplar with that trace.
    let metrics = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let page = metrics.body_str().to_string();
    assert!(
        page.contains(&format!("# {{trace_id=\"{TRACE_HEX}\"")),
        "window histogram exemplar carries the wire trace id:\n{}",
        page.lines()
            .filter(|l| l.contains("cyclesql_window"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(page.contains("cyclesql_window_latency_us_bucket"));

    // The telemetry endpoint exposes the same windows as JSON.
    let telemetry = client.request("GET", "/v1/debug/telemetry", None).unwrap();
    assert_eq!(telemetry.status, 200);
    let doc = Json::parse(telemetry.body_str().as_bytes()).expect("telemetry is JSON");
    let shards = doc.get("shards").and_then(|s| match s {
        Json::Arr(v) => Some(v),
        _ => None,
    });
    assert!(shards.is_some_and(|v| !v.is_empty()));
    assert!(telemetry
        .body_str()
        .contains(&format!("\"trace_id\":\"{TRACE_HEX}\"")));

    drop(client);
    server.drain(Duration::from_secs(10));
}

/// The seven span-pipeline families a traced server's `/metrics` carries.
const OBS_FAMILIES: [&str; 7] = [
    "cyclesql_obs_spans_finished_total",
    "cyclesql_obs_spans_emitted_total",
    "cyclesql_obs_spans_dropped_total",
    "cyclesql_obs_traces_sampled_total",
    "cyclesql_obs_traces_discarded_total",
    "cyclesql_obs_span_ring_overwrites_total",
    "cyclesql_obs_request_ring_overwrites_total",
];

/// One query, then the `/metrics` page, then a drain.
fn metrics_after_one_query(server: NetServer, suite: &BenchmarkSuite) -> String {
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let body = encode_query(&suite.dev[0]);
    let resp = client.request("POST", "/v1/query", Some(&body)).unwrap();
    assert_eq!(resp.status, 200);
    let page = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(page.status, 200);
    drop(client);
    server.drain(Duration::from_secs(10));
    page.body_str().to_string()
}

/// A traced server's `/metrics` carries the shared tracer's span-pipeline
/// counters once, unlabelled; an untraced server's carries none. Neither
/// page repeats a family header.
#[test]
fn span_pipeline_counters_reach_metrics_only_when_traced() {
    let suite = suite();
    let (server, tracer) = start_traced(&suite, 2);
    let traced = metrics_after_one_query(server, &suite);
    for family in OBS_FAMILIES {
        assert_eq!(
            traced.matches(&format!("# HELP {family} ")).count(),
            1,
            "{family} header once"
        );
        assert_eq!(
            traced
                .lines()
                .filter(|l| l.starts_with(&format!("{family} ")))
                .count(),
            1,
            "{family} has one unlabelled sample"
        );
    }
    assert!(tracer.counters().snapshot().spans_finished > 0);
    assert!(!traced.contains("cyclesql_obs_spans_finished_total 0\n"));

    let catalog = Catalog::from_suites([&suite]);
    let server = NetServer::start(
        "127.0.0.1:0",
        NetConfig {
            router: RouterConfig {
                shards: 2,
                ..RouterConfig::default()
            },
            ..NetConfig::default()
        },
        &catalog,
        |_, slice| {
            ServiceEngine::start(
                slice,
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                CycleSql::new(LoopVerifier::Oracle),
                ServeConfig {
                    workers: 1,
                    window: Some(WindowConfig::default()),
                    ..ServeConfig::default()
                },
            )
        },
        None,
    )
    .expect("bind loopback");
    let untraced = metrics_after_one_query(server, &suite);
    assert!(!untraced.contains("cyclesql_obs_"), "{untraced}");
    assert!(untraced.contains("cyclesql_window_latency_us_bucket"));

    for page in [&traced, &untraced] {
        let mut helps: Vec<&str> = page.lines().filter(|l| l.starts_with("# HELP ")).collect();
        let total = helps.len();
        helps.sort_unstable();
        helps.dedup();
        assert_eq!(helps.len(), total, "a # HELP line repeats");
    }
}

/// The stable identity of one request summary, independent of shard
/// layout, timing, and trace ids.
fn stable_fields(entry: &Json) -> (String, String, String, bool, f64, String) {
    let s = |k: &str| {
        entry
            .get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    (
        s("item_id"),
        s("db"),
        s("outcome"),
        matches!(entry.get("accepted"), Some(Json::Bool(true))),
        entry
            .get("iterations")
            .and_then(Json::as_num)
            .unwrap_or(-1.0),
        s("sql_digest"),
    )
}

fn scrape_requests(server: &NetServer) -> Vec<(String, String, String, bool, f64, String)> {
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let resp = client.request("GET", "/v1/debug/requests", None).unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(resp.body_str().as_bytes()).expect("requests page is JSON");
    let Some(Json::Arr(entries)) = doc.get("requests") else {
        panic!("no requests array");
    };
    let mut rows: Vec<_> = entries.iter().map(stable_fields).collect();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rows
}

#[test]
fn request_summaries_are_shard_count_independent() {
    let suite = suite();
    let (one, _) = start_traced(&suite, 1);
    let (four, _) = start_traced(&suite, 4);
    for server in [&one, &four] {
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        for item in suite.dev.iter().take(8) {
            let resp = client
                .request("POST", "/v1/query", Some(&encode_query(item)))
                .unwrap();
            assert_eq!(resp.status, 200);
        }
    }
    let rows_one = scrape_requests(&one);
    let rows_four = scrape_requests(&four);
    assert_eq!(rows_one.len(), 8);
    assert_eq!(
        rows_one, rows_four,
        "same requests yield the same summaries regardless of shard count"
    );
    one.drain(Duration::from_secs(10));
    four.drain(Duration::from_secs(10));
}

/// A verifier that sleeps so the drain can begin while a request is
/// still in flight.
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
fn debug_endpoints_answer_during_drain() {
    let suite = suite();
    let catalog = Catalog::from_suites([&suite]);
    let server = NetServer::start(
        "127.0.0.1:0",
        NetConfig::default(),
        &catalog,
        |_, slice| {
            ServiceEngine::start(
                slice,
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                CycleSql::new(LoopVerifier::Custom(Box::new(SlowVerifier(
                    Duration::from_millis(400),
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

    // Pipeline a slow query plus three debug scrapes on one connection,
    // then begin draining while the query is still in flight: the scrapes
    // are parsed after the drain flag flips, yet still answer 200.
    let body = encode_query(&suite.dev[0]);
    let wire = format!(
        "POST /v1/query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}\
         GET /v1/debug/requests HTTP/1.1\r\nhost: t\r\n\r\n\
         GET /v1/debug/slow?threshold_ms=0 HTTP/1.1\r\nhost: t\r\n\r\n\
         GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n",
        body.len()
    );
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client.send_raw(wire.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    server.begin_drain();

    let query = client.read_response().unwrap();
    assert_eq!(query.status, 200, "in-flight query completed");
    let requests = client.read_response().unwrap();
    assert_eq!(requests.status, 200, "debug/requests answers during drain");
    assert!(requests.body_str().contains("\"requests\":["));
    let slow = client.read_response().unwrap();
    assert_eq!(slow.status, 200, "debug/slow answers during drain");
    assert!(
        slow.body_str().contains("\"outcome\":\"ok\""),
        "the slow query (400ms verify > 0ms threshold) is attributed: {}",
        slow.body_str()
    );
    let metrics = client.read_response().unwrap();
    assert_eq!(metrics.status, 200, "metrics answers during drain");

    // A pipelined POST, by contrast, is refused during drain.
    drop(client);
    let report = server.drain(Duration::from_secs(10));
    assert_eq!(report.net.queries_ok, 1);
    assert_eq!(report.forced_connections, 0, "connection closed once idle");
}
