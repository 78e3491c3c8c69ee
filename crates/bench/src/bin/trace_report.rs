//! Tracing-overhead benchmark and trace inspector for the serving engine.
//!
//! Drives the same closed-loop workload through `cyclesql-serve` four
//! times — tracing **off** (plain [`ServiceEngine::start`]), tracing **on**
//! (a root `serve` span per request with per-candidate and per-stage
//! children, sampled 1-in-2 into a JSONL file), tracing on with
//! **EXPLAIN ANALYZE** operator profiles attached to every `execute`
//! span, and **windowed** telemetry (rolling per-stage histogram rings,
//! no tracing) — and reports the relative overhead of each mode.
//!
//! Outputs:
//! - `BENCH_obs.json` (`--out`): elapsed / throughput / span-pipeline
//!   counters per mode plus `overhead_on_pct`, `overhead_analyze_pct`,
//!   and `overhead_window_pct`.
//! - a span JSONL file (`--jsonl`) from the traced run, which the report
//!   then re-reads to print a per-stage flame summary (count, total,
//!   mean, max per span name) to stderr.
//! - a representative EXPLAIN ANALYZE operator tree and a Prometheus text
//!   dump of the traced run's metrics, both to stderr.
//!
//! `--assert-off-zero` additionally exits non-zero unless the untraced
//! run left every span-pipeline counter at exactly zero (the CI gate for
//! the zero-cost-when-disabled contract).
//!
//! Usage: `trace_report [--requests N] [--workers N] [--out PATH]
//! [--jsonl PATH] [--quick] [--assert-off-zero]`

use cyclesql_benchgen::{build_spider_suite, BenchmarkItem, SuiteConfig, Variant};
use cyclesql_core::{CycleSql, LoopVerifier};
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_nli::AlwaysAcceptVerifier;
use cyclesql_obs::{
    parse_jsonl_line, stage_summary, AttrValue, Exposition, JsonlSink, MemorySink, ObsCounters,
    ObsCountersSnapshot, ParsedSpan, SamplePolicy, SamplingSink, SpanSink, Tracer, WindowConfig,
};
use cyclesql_serve::{
    render_metrics, render_observability, Catalog, ServeConfig, ServeRequest, ServiceEngine,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct ModeResult {
    elapsed_secs: f64,
    throughput_rps: f64,
    counters: ObsCountersSnapshot,
}

fn workload(requests: usize, quick: bool) -> (Arc<Catalog>, Vec<Arc<BenchmarkItem>>) {
    let config = if quick {
        SuiteConfig {
            seed: 0x0B5,
            train_per_template: 1,
            eval_per_template: 2,
        }
    } else {
        SuiteConfig {
            seed: 0x0B5,
            ..SuiteConfig::default()
        }
    };
    let suite = build_spider_suite(Variant::Spider, config);
    let catalog = Arc::new(Catalog::from_suites([&suite]));
    let distinct: Vec<Arc<BenchmarkItem>> = suite.dev.iter().cloned().map(Arc::new).collect();
    let items: Vec<Arc<BenchmarkItem>> = (0..requests)
        .map(|i| Arc::clone(&distinct[i % distinct.len()]))
        .collect();
    (catalog, items)
}

fn cycle() -> CycleSql {
    // AlwaysAccept drives the full pipeline (execute → provenance →
    // explain → verify) on every request.
    CycleSql::new(LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier))
}

/// Closed loop: `2 × workers` clients, each issuing its next request as
/// soon as the previous one completes.
fn drive(engine: &ServiceEngine, items: &[Arc<BenchmarkItem>], clients: usize) -> f64 {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    return;
                }
                engine
                    .call(ServeRequest {
                        item: Arc::clone(&items[i]),
                    })
                    .expect("closed-loop request serves");
            });
        }
    });
    started.elapsed().as_secs_f64()
}

fn mode_result(elapsed: f64, requests: usize, counters: ObsCountersSnapshot) -> ModeResult {
    ModeResult {
        elapsed_secs: elapsed,
        throughput_rps: requests as f64 / elapsed,
        counters,
    }
}

fn mode_json(out: &mut String, name: &str, r: &ModeResult) {
    let c = &r.counters;
    let _ = write!(
        out,
        "\"{name}\":{{\"elapsed_secs\":{:.6},\"throughput_rps\":{:.3},\
         \"spans_finished\":{},\"spans_emitted\":{},\"spans_dropped\":{},\
         \"traces_sampled\":{},\"traces_discarded\":{}}}",
        r.elapsed_secs,
        r.throughput_rps,
        c.spans_finished,
        c.spans_emitted,
        c.spans_dropped,
        c.traces_sampled,
        c.traces_discarded,
    );
}

fn main() {
    let mut requests: usize = 300;
    let mut workers: usize = 4;
    let mut out_path = String::from("BENCH_obs.json");
    let mut jsonl_path = String::from("trace_spans.jsonl");
    let mut quick = false;
    let mut assert_off_zero = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests N");
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers N");
            }
            "--out" => out_path = args.next().expect("--out PATH"),
            "--jsonl" => jsonl_path = args.next().expect("--jsonl PATH"),
            "--quick" => quick = true,
            "--assert-off-zero" => assert_off_zero = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    if quick {
        requests = requests.min(120);
        workers = workers.min(2);
    }
    let (catalog, items) = workload(requests, quick);
    let clients = workers * 2;
    eprintln!("workload: {requests} requests, {workers} workers, {clients} clients");

    let config = || ServeConfig {
        workers,
        ..ServeConfig::default()
    };

    // Tracing off. The counters belong to a tracer the engine never sees;
    // they stay zero unless the untraced path touches the span pipeline.
    let off_counters = Arc::new(ObsCounters::default());
    let off = {
        let engine = ServiceEngine::start(
            Arc::clone(&catalog),
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            cycle(),
            config(),
        );
        let elapsed = drive(&engine, &items, clients);
        engine.shutdown();
        mode_result(elapsed, requests, off_counters.snapshot())
    };
    eprintln!("off     : {:.2} req/s", off.throughput_rps);
    if assert_off_zero {
        let c = &off.counters;
        let zero = c.spans_finished == 0
            && c.spans_emitted == 0
            && c.spans_dropped == 0
            && c.traces_sampled == 0
            && c.traces_discarded == 0
            && c.span_ring_overwrites == 0
            && c.request_ring_overwrites == 0;
        if !zero {
            eprintln!("FAIL: tracing-off run touched the span pipeline: {c:?}");
            std::process::exit(1);
        }
        eprintln!("tracing-off span counters all zero");
    }

    // Windowed telemetry without tracing: the rolling per-stage histogram
    // rings record every request, but no spans exist, so this isolates
    // the window bookkeeping cost.
    let window = {
        let counters = Arc::new(ObsCounters::default());
        let engine = ServiceEngine::start(
            Arc::clone(&catalog),
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            cycle(),
            ServeConfig {
                window: Some(WindowConfig::default()),
                ..config()
            },
        );
        let elapsed = drive(&engine, &items, clients);
        engine.shutdown();
        mode_result(elapsed, requests, counters.snapshot())
    };
    eprintln!("window  : {:.2} req/s", window.throughput_rps);

    // Tracing on: spans sampled 1-in-2 (errors always kept) into JSONL.
    let (on, on_prom) = {
        let counters = Arc::new(ObsCounters::default());
        let jsonl = Arc::new(
            JsonlSink::create(&jsonl_path, Arc::clone(&counters)).expect("create jsonl sink"),
        );
        let sampler = Arc::new(SamplingSink::new(
            jsonl.clone() as Arc<dyn SpanSink>,
            SamplePolicy {
                one_in: 2,
                always_on_error: true,
            },
            Arc::clone(&counters),
        ));
        let tracer = Arc::new(Tracer::new(
            sampler as Arc<dyn SpanSink>,
            Arc::clone(&counters),
        ));
        let engine = ServiceEngine::start_traced(
            Arc::clone(&catalog),
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            cycle(),
            config(),
            Arc::clone(&tracer),
            false,
        );
        let elapsed = drive(&engine, &items, clients);
        let metrics = engine.shutdown();
        jsonl.flush().expect("flush jsonl sink");
        let snapshot = counters.snapshot();
        let mut page = Exposition::default();
        render_metrics(&mut page, &[(None, &metrics)]);
        render_observability(&mut page, &snapshot);
        (mode_result(elapsed, requests, snapshot), page.finish())
    };
    eprintln!(
        "on      : {:.2} req/s, {} spans emitted, {} traces sampled",
        on.throughput_rps, on.counters.spans_emitted, on.counters.traces_sampled
    );
    if on.counters.spans_emitted == 0 {
        eprintln!("FAIL: traced run emitted no spans");
        std::process::exit(1);
    }

    // Tracing on + EXPLAIN ANALYZE, into a memory ring so the operator
    // profiles (span attributes) are inspectable.
    let (analyze, analyze_sample) = {
        let counters = Arc::new(ObsCounters::default());
        let sink = Arc::new(MemorySink::new(65_536, Arc::clone(&counters)));
        let tracer = Arc::new(Tracer::new(
            sink.clone() as Arc<dyn SpanSink>,
            Arc::clone(&counters),
        ));
        let engine = ServiceEngine::start_traced(
            Arc::clone(&catalog),
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            cycle(),
            config(),
            Arc::clone(&tracer),
            true,
        );
        let elapsed = drive(&engine, &items, clients);
        engine.shutdown();
        let sample = sink
            .records()
            .iter()
            .filter(|r| r.name == "execute")
            .find_map(|r| match r.attr("analyze") {
                Some(AttrValue::Str(text)) => Some(text.clone()),
                _ => None,
            });
        (mode_result(elapsed, requests, counters.snapshot()), sample)
    };
    eprintln!("analyze : {:.2} req/s", analyze.throughput_rps);

    let overhead =
        |traced: &ModeResult| (traced.elapsed_secs - off.elapsed_secs) / off.elapsed_secs * 100.0;
    let overhead_on = overhead(&on);
    let overhead_analyze = overhead(&analyze);
    let overhead_window = overhead(&window);
    eprintln!(
        "overhead: on {overhead_on:+.2}%  analyze {overhead_analyze:+.2}%  \
         window {overhead_window:+.2}%"
    );

    // Per-stage flame summary, re-read from the JSONL artifact.
    let spans: Vec<ParsedSpan> = std::fs::read_to_string(&jsonl_path)
        .expect("read span jsonl")
        .lines()
        .filter_map(parse_jsonl_line)
        .collect();
    eprintln!("\nflame summary ({} spans from {jsonl_path}):", spans.len());
    eprintln!("{}", stage_summary(&spans));
    if let Some(text) = analyze_sample {
        eprintln!("sample EXPLAIN ANALYZE:\n{text}");
    }
    eprintln!("prometheus dump (traced run):\n{on_prom}");

    let mut json = String::from("{");
    let _ = write!(json, "\"requests\":{requests},\"workers\":{workers},");
    mode_json(&mut json, "off", &off);
    json.push(',');
    mode_json(&mut json, "on", &on);
    json.push(',');
    mode_json(&mut json, "analyze", &analyze);
    json.push(',');
    mode_json(&mut json, "window", &window);
    let _ = write!(
        json,
        ",\"overhead_on_pct\":{overhead_on:.3},\"overhead_analyze_pct\":{overhead_analyze:.3},\
         \"overhead_window_pct\":{overhead_window:.3}}}"
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out_path} and {jsonl_path}");
}
