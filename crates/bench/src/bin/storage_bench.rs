//! Throughput benchmark for the storage engine's execution paths.
//!
//! Runs every gold query of the generated Spider and Science suites through
//! the tree-walking reference interpreter (`cyclesql_storage::reference`)
//! and the compiled columnar engine (`CompiledQuery::run`), and writes
//! per-query-class throughput to `BENCH_storage.json`.
//!
//! The compiled engine is timed the way callers are expected to use it —
//! compilation hoisted out of the hot loop, one run per iteration (lineage
//! tracking enabled on both paths, so the comparison is like-for-like).
//! Compile cost is reported separately. `speedup` is the columnar engine
//! over the reference interpreter.
//!
//! Per-class throughput swings by tens of percent between runs on a
//! shared host, so the whole timed sweep repeats [`REPS`] times (each
//! repetition times every query once more, so host noise lands on whole
//! repetitions). Every throughput figure is the median over the
//! repetitions, and each `*_qps_iqr` field is the interquartile range of
//! that figure.
//!
//! `--threads N` additionally times the columnar engine with an N-wide
//! morsel pool; `--threads sweep` times every width in {2, 4, 8}.
//! `parallel_speedup` is single-threaded columnar over the widest timed
//! pool — what intra-query parallelism buys on this host (`host_threads`
//! records how many cores were actually available; on a single-core host
//! the honest expectation is ~1×, minus pool overhead).
//!
//! Numbers from this bench only compare across runs on comparable hosts,
//! so `host_threads` is recorded in the artifact and checked before
//! overwriting: a run on fewer cores than the existing artifact was
//! produced with refuses to clobber it unless `--force` is passed.
//!
//! Usage: `storage_bench [--iters N] [--out PATH] [--quick] [--engine columnar|reference|all] [--threads N|sweep] [--force]`

use cyclesql_benchgen::{build_science_suite, build_spider_suite, Split, SuiteConfig, Variant};
use cyclesql_sql::{parse, Expr, JoinType, Query, QueryBody};
use cyclesql_storage::{compile, reference, Database, ExecOpts};
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions of the timed sweep; the report gives their median and IQR.
const REPS: usize = 5;

/// Query classes, coarsest structural feature first: a CTE prologue
/// trumps a set operation trumps a subquery trumps a CASE mapping trumps
/// grouping trumps an outer join trumps an inner join.
fn classify(q: &Query) -> &'static str {
    if !q.ctes.is_empty() {
        return "cte";
    }
    if matches!(q.body, QueryBody::SetOp { .. }) {
        return "setop";
    }
    if has_subquery(q) {
        return "subquery";
    }
    if has_case(q) {
        return "case";
    }
    if q.uses_aggregate() {
        return "grouped";
    }
    let cores = q.body.select_cores();
    if cores
        .iter()
        .any(|c| c.from.joins.iter().any(|j| j.join_type != JoinType::Inner))
    {
        return "outer_join";
    }
    let joins = cores.iter().map(|c| c.from.joins.len()).sum::<usize>();
    if joins > 0 {
        return "join";
    }
    "scan"
}

fn has_case(q: &Query) -> bool {
    q.body.select_cores().iter().any(|core| {
        let mut found = false;
        let mut scan = |e: &Expr| {
            e.visit(&mut |x| {
                if matches!(x, Expr::Case { .. }) {
                    found = true;
                }
            })
        };
        for p in &core.projections {
            if let cyclesql_sql::SelectItem::Expr { expr, .. } = p {
                scan(expr);
            }
        }
        if let Some(w) = &core.where_clause {
            scan(w);
        }
        if let Some(h) = &core.having {
            scan(h);
        }
        found
    })
}

fn has_subquery(q: &Query) -> bool {
    q.body.select_cores().iter().any(|core| {
        let mut found = false;
        let mut scan = |e: &Expr| {
            e.visit(&mut |x| {
                if matches!(
                    x,
                    Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_)
                ) {
                    found = true;
                }
            })
        };
        if let Some(w) = &core.where_clause {
            scan(w);
        }
        if let Some(h) = &core.having {
            scan(h);
        }
        found
    })
}

/// Timed seconds of one query class (or of the whole workload), one slot
/// per repetition.
struct Secs {
    reference: [f64; REPS],
    columnar: [f64; REPS],
    /// Per timed morsel-pool width (keyed by thread count).
    parallel: BTreeMap<usize, [f64; REPS]>,
}

impl Default for Secs {
    fn default() -> Self {
        Secs {
            reference: [0.0; REPS],
            columnar: [0.0; REPS],
            parallel: BTreeMap::new(),
        }
    }
}

#[derive(Default)]
struct ClassAccum {
    queries: usize,
    secs: Secs,
    compile_secs: f64,
}

struct ClassReport {
    queries: usize,
    iters: usize,
    reference_qps: f64,
    reference_qps_iqr: f64,
    columnar_qps: f64,
    columnar_qps_iqr: f64,
    /// Columnar engine vs the reference interpreter.
    speedup: f64,
    /// Columnar throughput per timed morsel-pool width (key = threads).
    parallel_qps: BTreeMap<String, f64>,
    /// Single-threaded columnar vs the widest timed pool (the intra-query
    /// parallelism win on this host).
    parallel_speedup: Option<f64>,
    compile_ms_total: f64,
}

cyclesql_obs::impl_to_json! {
    ClassReport {
        queries, iters, reference_qps, reference_qps_iqr, columnar_qps, columnar_qps_iqr, speedup,
        parallel_qps, parallel_speedup, compile_ms_total
    }
}

/// Median and interquartile range of per-repetition throughputs
/// (`work / secs`), interpolating between order statistics.
fn median_iqr(work: usize, secs: &[f64; REPS]) -> (f64, f64) {
    let mut qps = secs.map(|s| if s > 0.0 { work as f64 / s } else { 0.0 });
    qps.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (REPS - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        qps[lo] + (qps[hi] - qps[lo]) * (pos - lo as f64)
    };
    (at(0.5), at(0.75) - at(0.25))
}

struct Report {
    suite_queries: usize,
    iters_per_query: usize,
    /// Repetitions of the timed sweep behind each median and IQR.
    reps: usize,
    engines: Vec<String>,
    /// Morsel-pool widths timed by `--threads` (empty without the flag).
    threads: Vec<usize>,
    /// Cores actually available to this run — the ceiling on any
    /// honest `parallel_speedup`.
    host_threads: usize,
    classes: BTreeMap<String, ClassReport>,
    overall_reference_qps: f64,
    overall_reference_qps_iqr: f64,
    overall_columnar_qps: f64,
    overall_columnar_qps_iqr: f64,
    overall_speedup: f64,
    overall_parallel_speedup: Option<f64>,
}

cyclesql_obs::impl_to_json! {
    Report {
        suite_queries, iters_per_query, reps, engines, threads, host_threads, classes,
        overall_reference_qps, overall_reference_qps_iqr, overall_columnar_qps,
        overall_columnar_qps_iqr, overall_speedup, overall_parallel_speedup
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `host_threads` value recorded in an existing artifact, if the file
/// exists and carries one. A targeted scan, not a full parse — the guard
/// must work even if the report schema around it has drifted.
fn recorded_host_threads(path: &str) -> Option<usize> {
    let text = std::fs::read_to_string(path).ok()?;
    let at = text.find("\"host_threads\"")?;
    let rest = text[at..].split_once(':')?.1;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn main() {
    let mut iters: usize = 25;
    let mut out = String::from("BENCH_storage.json");
    let mut quick = false;
    let mut engines: Vec<&'static str> = vec!["reference", "columnar"];
    let mut thread_widths: Vec<usize> = Vec::new();
    let mut force = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args.next().and_then(|v| v.parse().ok()).expect("--iters N");
            }
            "--out" => out = args.next().expect("--out PATH"),
            "--quick" => quick = true,
            "--threads" => {
                let v = args.next().expect("--threads N|sweep");
                thread_widths = match v.as_str() {
                    "sweep" => vec![2, 4, 8],
                    n => vec![n.parse().expect("--threads N|sweep")],
                };
                thread_widths.retain(|&t| t > 1);
            }
            "--engine" => {
                let v = args.next().expect("--engine columnar|reference|all");
                engines = match v.as_str() {
                    "all" => vec!["reference", "columnar"],
                    "reference" => vec!["reference"],
                    "columnar" => vec!["columnar"],
                    other => panic!("unknown engine: {other} (want columnar|reference|all)"),
                };
            }
            "--force" => force = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    if quick {
        iters = iters.min(3);
    }

    // Throughput numbers from different core counts are not comparable;
    // don't silently replace a beefier host's artifact with this run's.
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!("host_threads: {host_threads}");
    if let Some(recorded) = recorded_host_threads(&out) {
        if recorded > host_threads && !force {
            eprintln!(
                "storage_bench: {out} was produced on {recorded} threads but this host has \
                 {host_threads}; refusing to overwrite a multi-core artifact with a weaker run \
                 (pass --force to do it anyway)"
            );
            std::process::exit(1);
        }
    }

    let config = if quick {
        SuiteConfig {
            seed: 0xBE9C4,
            train_per_template: 1,
            eval_per_template: 1,
        }
    } else {
        SuiteConfig {
            seed: 0xBE9C4,
            ..SuiteConfig::default()
        }
    };
    let suites = [
        build_spider_suite(Variant::Spider, config),
        build_science_suite(config),
    ];

    // (class, db, parsed gold) for every item of every split of both suites.
    let mut workload: Vec<(&'static str, &Database, Query)> = Vec::new();
    for suite in &suites {
        for split in [Split::Train, Split::Dev, Split::Test] {
            for item in suite.split(split) {
                let q = parse(&item.gold_sql).expect("generated gold parses");
                workload.push((classify(&q), suite.database(item), q));
            }
        }
    }

    // Columnar shadows are a load-time cost in serving; build them up
    // front here too so the timed region measures steady-state execution.
    for suite in &suites {
        for db in suite.databases.values() {
            db.precompute_columnar();
        }
    }

    let runs = |e: &str| engines.contains(&e);
    let mut accum: BTreeMap<&'static str, ClassAccum> = BTreeMap::new();
    let mut plans = Vec::with_capacity(workload.len());
    for (class, db, q) in &workload {
        let acc = accum.entry(class).or_default();
        acc.queries += 1;

        let t0 = Instant::now();
        let compiled = compile(db, q).expect("generated gold compiles");
        acc.compile_secs += t0.elapsed().as_secs_f64();

        // Sanity: both paths must agree before we time anything.
        let ref_out = reference::execute_with_lineage(db, q).expect("reference executes");
        let out = compiled.run(db).expect("columnar engine runs");
        assert!(
            ref_out.result.bag_eq(&out.result),
            "columnar diverges on: {}",
            cyclesql_sql::to_sql(q)
        );
        plans.push(compiled);
    }

    let mut total = Secs::default();
    for rep in 0..REPS {
        for ((class, db, q), compiled) in workload.iter().zip(&plans) {
            let secs = &mut accum.get_mut(class).expect("class seen").secs;
            if runs("reference") {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(reference::execute_with_lineage(db, q).unwrap());
                }
                secs.reference[rep] += t0.elapsed().as_secs_f64();
            }

            if runs("columnar") {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(compiled.run(db).unwrap());
                }
                secs.columnar[rep] += t0.elapsed().as_secs_f64();
            }

            for &threads in &thread_widths {
                let opts = ExecOpts {
                    threads,
                    ..ExecOpts::default()
                };
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(compiled.run_opts(db, &opts).unwrap());
                }
                secs.parallel.entry(threads).or_insert([0.0; REPS])[rep] +=
                    t0.elapsed().as_secs_f64();
            }
        }
    }
    for acc in accum.values() {
        for rep in 0..REPS {
            total.reference[rep] += acc.secs.reference[rep];
            total.columnar[rep] += acc.secs.columnar[rep];
            for (&t, secs) in &acc.secs.parallel {
                total.parallel.entry(t).or_insert([0.0; REPS])[rep] += secs[rep];
            }
        }
    }

    // The headline `parallel_speedup` compares against the widest pool.
    let widest = thread_widths.iter().copied().max();
    let summarize = |queries: usize, secs: &Secs, compile_secs: f64| {
        let work = queries * iters;
        let (reference_qps, reference_qps_iqr) = median_iqr(work, &secs.reference);
        let (columnar_qps, columnar_qps_iqr) = median_iqr(work, &secs.columnar);
        let parallel_qps: BTreeMap<usize, f64> = secs
            .parallel
            .iter()
            .map(|(&t, s)| (t, median_iqr(work, s).0))
            .collect();
        let parallel_speedup = widest.map(|t| ratio(parallel_qps[&t], columnar_qps));
        ClassReport {
            queries,
            iters,
            reference_qps,
            reference_qps_iqr,
            columnar_qps,
            columnar_qps_iqr,
            speedup: ratio(columnar_qps, reference_qps),
            parallel_qps: parallel_qps
                .into_iter()
                .map(|(t, qps)| (t.to_string(), qps))
                .collect(),
            parallel_speedup,
            compile_ms_total: compile_secs * 1e3,
        }
    };
    let classes: BTreeMap<String, ClassReport> = accum
        .iter()
        .map(|(class, acc)| {
            let report = summarize(acc.queries, &acc.secs, acc.compile_secs);
            (class.to_string(), report)
        })
        .collect();
    let overall = summarize(workload.len(), &total, 0.0);
    let report = Report {
        suite_queries: workload.len(),
        iters_per_query: iters,
        reps: REPS,
        engines: engines.iter().map(|e| e.to_string()).collect(),
        threads: thread_widths.clone(),
        host_threads,
        classes,
        overall_reference_qps: overall.reference_qps,
        overall_reference_qps_iqr: overall.reference_qps_iqr,
        overall_columnar_qps: overall.columnar_qps,
        overall_columnar_qps_iqr: overall.columnar_qps_iqr,
        overall_speedup: overall.speedup,
        overall_parallel_speedup: overall.parallel_speedup,
    };
    let json = cyclesql_obs::json::to_string_pretty(&report);
    std::fs::write(&out, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out}");
}
