//! Concurrency-determinism contract: the same request set pushed through
//! the serving engine with 1 worker and with N workers yields identical
//! per-request responses (accepted SQL, explanation text, result rows) and
//! identical counters modulo scheduling (the result cache's hit/miss *split*
//! may shift when concurrent misses race on one key, but the total lookup
//! count may not). Tracing is part of the contract too: turning it on
//! changes no response, and the spans a traced run emits are
//! worker-count-invariant in count per stage.

use cyclesql_benchgen::{
    build_science_suite, build_spider_suite, BenchmarkItem, SuiteConfig, Variant,
};
use cyclesql_core::{CycleSql, LoopVerifier};
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_nli::{AlwaysAcceptVerifier, PrebuiltNliVerifier};
use cyclesql_obs::{MemorySink, ObsCounters, SpanRecord, SpanSink, Tracer};
use cyclesql_serve::{
    AdmissionPolicy, Catalog, MetricsSnapshot, ServeConfig, ServeRequest, ServeResponse,
    ServiceEngine,
};
use std::sync::Arc;

fn quick() -> SuiteConfig {
    SuiteConfig {
        seed: 0xDE7E,
        train_per_template: 1,
        eval_per_template: 2,
    }
}

/// A mixed multi-database workload: spider and science dev items
/// interleaved, each question repeated once (so the result cache sees
/// hits).
fn workload() -> (Arc<Catalog>, Vec<Arc<BenchmarkItem>>) {
    let spider = build_spider_suite(Variant::Spider, quick());
    let science = build_science_suite(quick());
    let catalog = Arc::new(Catalog::from_suites([&spider, &science]));
    let mut items: Vec<Arc<BenchmarkItem>> = Vec::new();
    for pair in spider.dev.iter().take(12).zip(science.dev.iter().take(12)) {
        items.push(Arc::new(pair.0.clone()));
        items.push(Arc::new(pair.1.clone()));
    }
    let repeat = items.clone();
    items.extend(repeat);
    (catalog, items)
}

fn verifier(name: &str) -> LoopVerifier {
    match name {
        "oracle" => LoopVerifier::Oracle,
        "always-accept" => LoopVerifier::AlwaysAccept(AlwaysAcceptVerifier),
        "prebuilt" => LoopVerifier::Prebuilt(PrebuiltNliVerifier),
        other => panic!("unknown verifier {other}"),
    }
}

fn config_for(workers: usize, items: &[Arc<BenchmarkItem>]) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: items.len().max(1),
        policy: AdmissionPolicy::Block,
        ..ServeConfig::default()
    }
}

fn serve_all(engine: &ServiceEngine, items: &[Arc<BenchmarkItem>]) -> Vec<ServeResponse> {
    // Submit everything up front (the queue holds the whole set), then
    // collect in submission order — responses stay index-aligned however
    // the workers interleave.
    let tickets: Vec<_> = items
        .iter()
        .map(|item| {
            engine
                .submit(ServeRequest {
                    item: Arc::clone(item),
                })
                .unwrap()
        })
        .collect();
    tickets.into_iter().map(|t| t.wait().unwrap()).collect()
}

fn drain(
    engine: ServiceEngine,
    items: &[Arc<BenchmarkItem>],
) -> (Vec<ServeResponse>, MetricsSnapshot) {
    let responses = serve_all(&engine, items);
    (responses, engine.shutdown())
}

/// Serves the workload on a fresh engine in two waves. Its second half
/// repeats its first, and is submitted only once the first half has
/// completed, so every repeated plan lookup is a hit however the workers
/// interleave.
fn run_with_workers(
    workers: usize,
    catalog: &Arc<Catalog>,
    items: &[Arc<BenchmarkItem>],
    verifier_name: &str,
) -> (Vec<ServeResponse>, MetricsSnapshot) {
    let engine = ServiceEngine::start(
        Arc::clone(catalog),
        SimulatedModel::new(ModelProfile::resdsql_3b()),
        CycleSql::new(verifier(verifier_name)),
        config_for(workers, items),
    );
    let (first, repeat) = items.split_at(items.len() / 2);
    let mut responses = serve_all(&engine, first);
    responses.extend(serve_all(&engine, repeat));
    (responses, engine.shutdown())
}

fn run_traced(
    workers: usize,
    catalog: &Arc<Catalog>,
    items: &[Arc<BenchmarkItem>],
    verifier_name: &str,
    analyze: bool,
) -> (Vec<ServeResponse>, Vec<SpanRecord>) {
    let counters = Arc::new(ObsCounters::default());
    let sink = Arc::new(MemorySink::new(65_536, Arc::clone(&counters)));
    let tracer = Arc::new(Tracer::new(sink.clone() as Arc<dyn SpanSink>, counters));
    let engine = ServiceEngine::start_traced(
        Arc::clone(catalog),
        SimulatedModel::new(ModelProfile::resdsql_3b()),
        CycleSql::new(verifier(verifier_name)),
        config_for(workers, items),
        tracer,
        analyze,
    );
    let (responses, _) = drain(engine, items);
    (responses, sink.records())
}

/// Responses must agree field-for-field; only the wall-clock stage timings
/// are allowed to differ between runs.
fn assert_same_responses(a: &[ServeResponse], b: &[ServeResponse], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response count");
    for (i, (s, p)) in a.iter().zip(b).enumerate() {
        assert_eq!(s.db_id, p.db_id, "{what}, request {i}: database");
        assert_eq!(s.sql, p.sql, "{what}, request {i}: accepted SQL");
        assert_eq!(s.accepted, p.accepted, "{what}, request {i}: verdict");
        assert_eq!(
            s.iterations, p.iterations,
            "{what}, request {i}: iterations"
        );
        assert_eq!(
            s.explanation, p.explanation,
            "{what}, request {i}: explanation text"
        );
        assert_eq!(
            s.result.as_deref(),
            p.result.as_deref(),
            "{what}, request {i}: result rows"
        );
    }
}

fn assert_deterministic(verifier_name: &str) {
    let (catalog, items) = workload();
    let (serial, serial_snap) = run_with_workers(1, &catalog, &items, verifier_name);
    let (parallel, parallel_snap) = run_with_workers(4, &catalog, &items, verifier_name);

    assert_same_responses(&serial, &parallel, "1 vs 4 workers");

    // Counters are interleaving-independent…
    assert_eq!(serial_snap.admitted, parallel_snap.admitted);
    assert_eq!(serial_snap.completed, parallel_snap.completed);
    assert_eq!(serial_snap.completed, items.len() as u64);
    assert_eq!(serial_snap.shed, 0);
    assert_eq!(serial_snap.timeouts, parallel_snap.timeouts);
    assert_eq!(serial_snap.verifier_accepts, parallel_snap.verifier_accepts);
    assert_eq!(serial_snap.verifier_rejects, parallel_snap.verifier_rejects);
    // …and so is the total number of plan-cache lookups; only the
    // hit/miss split may move when two workers race to compile one key.
    assert_eq!(
        serial_snap.cache_hits + serial_snap.cache_misses,
        parallel_snap.cache_hits + parallel_snap.cache_misses,
        "total plan lookups"
    );
    assert!(
        parallel_snap.cache_hits > 0,
        "the repeated-question mix hits the plan cache"
    );
    assert!(
        parallel_snap.cache_hits >= parallel_snap.cache_misses,
        "second pass over the workload is all hits: {} hits vs {} misses",
        parallel_snap.cache_hits,
        parallel_snap.cache_misses
    );
}

#[test]
fn oracle_loop_is_worker_count_invariant() {
    assert_deterministic("oracle");
}

#[test]
fn explaining_loop_is_worker_count_invariant() {
    // AlwaysAccept runs the full provenance + explanation path per
    // request, so this pins explanation text across interleavings too.
    assert_deterministic("always-accept");
}

#[test]
fn result_cache_changes_no_responses() {
    // Capacity 0 caches nothing, so every execute and every explanation of
    // every request is built afresh: the responses must be the ones a
    // cached engine serves, on its cold pass and on a warm pass that reads
    // memoized results and explanations. The prebuilt NLI strawman rejects
    // some candidates, so several get explained per request.
    let (catalog, items) = workload();
    for verifier_name in ["oracle", "always-accept", "prebuilt"] {
        let two_passes = |capacity: usize| {
            let engine = ServiceEngine::start(
                Arc::clone(&catalog),
                SimulatedModel::new(ModelProfile::resdsql_3b()),
                CycleSql::new(verifier(verifier_name)),
                ServeConfig {
                    plan_cache_capacity: capacity,
                    ..config_for(2, &items)
                },
            );
            let cold = serve_all(&engine, &items);
            let warm = serve_all(&engine, &items);
            (cold, warm, engine.shutdown())
        };
        let (cold, warm, cached_snap) = two_passes(ServeConfig::default().plan_cache_capacity);
        let (uncached, uncached_warm, uncached_snap) = two_passes(0);
        assert_same_responses(&cold, &uncached, &format!("{verifier_name}, cold"));
        assert_same_responses(&warm, &uncached, &format!("{verifier_name}, warm"));
        assert_same_responses(
            &uncached_warm,
            &uncached,
            &format!("{verifier_name}, uncached"),
        );
        assert_eq!(
            uncached_snap.cache_hits, 0,
            "{verifier_name}: nothing cached"
        );
        assert_eq!(
            cached_snap.cache_hits + cached_snap.cache_misses,
            uncached_snap.cache_misses,
            "{verifier_name}: the same lookups either way"
        );
        // Each explanation is read or built once per examined candidate
        // that ran, whatever the cache holds; without a cache every one is
        // built.
        assert_eq!(
            cached_snap.explain_cache_hits + cached_snap.explain_cache_misses,
            uncached_snap.explain_cache_misses,
            "{verifier_name}: the same explanations either way"
        );
        assert_eq!(uncached_snap.explain_cache_hits, 0, "{verifier_name}");
        if verifier_name == "oracle" {
            assert_eq!(
                uncached_snap.explain_cache_misses, 0,
                "the oracle explains nothing"
            );
        } else {
            assert!(
                cached_snap.explain_cache_hits > cached_snap.explain_cache_misses,
                "{verifier_name}: the warm pass reads memoized explanations: {} hits, {} misses",
                cached_snap.explain_cache_hits,
                cached_snap.explain_cache_misses
            );
        }
        if verifier_name == "prebuilt" {
            assert!(
                cached_snap.verifier_rejects > 0,
                "the prebuilt strawman rejects candidates"
            );
        }
    }
}

#[test]
fn traced_responses_and_span_counts_are_worker_count_invariant() {
    let (catalog, items) = workload();
    let (serial, serial_spans) = run_traced(1, &catalog, &items, "always-accept", false);
    let (parallel, parallel_spans) = run_traced(4, &catalog, &items, "always-accept", false);

    assert_same_responses(&serial, &parallel, "traced, 1 vs 4 workers");

    // The span streams interleave differently, but each stage emits
    // exactly the same number of spans either way.
    let count = |spans: &[SpanRecord], name: &str| spans.iter().filter(|r| r.name == name).count();
    for stage in [
        "serve",
        "translate",
        "cycle",
        "execute",
        "provenance",
        "explain",
        "verify",
    ] {
        assert_eq!(
            count(&serial_spans, stage),
            count(&parallel_spans, stage),
            "span count for stage `{stage}`"
        );
    }
    assert_eq!(
        count(&serial_spans, "serve"),
        items.len(),
        "one root span per request"
    );
    assert_eq!(
        serial_spans.len(),
        parallel_spans.len(),
        "total spans emitted"
    );
}

#[test]
fn tracing_changes_no_responses() {
    let (catalog, items) = workload();
    let (untraced, _) = run_with_workers(2, &catalog, &items, "always-accept");
    let (traced, spans) = run_traced(2, &catalog, &items, "always-accept", false);
    let (analyzed, _) = run_traced(2, &catalog, &items, "always-accept", true);

    assert_same_responses(&untraced, &traced, "tracing off vs on");
    assert_same_responses(&untraced, &analyzed, "tracing off vs EXPLAIN ANALYZE");
    assert!(!spans.is_empty(), "traced run actually emitted spans");
}
