//! Differential test pinning the compiled columnar engine to the reference
//! tree-walking interpreter: for every gold query of the generated Spider
//! and Science suites, the reference interpreter and the columnar engine
//! (at the default batch size and at a tiny chunk size that forces
//! mid-operator batch boundaries) must produce *identical* output — same columns, same rows in the same order
//! (compared by `Debug` rendering, which is stricter than `Value`'s
//! sql_eq-based `PartialEq`), and the same per-row lineage in the same
//! order. Queries that fail must fail with the same error on every path.
//!
//! The columnar engine additionally runs a thread-count sweep: every
//! worker count must produce output (rows, lineage, `RunStats`) that is
//! bit-identical to the single-threaded columnar engine at the same batch
//! size, and runtime errors must surface identically mid-morsel.

use cyclesql_benchgen::{
    build_science_suite, build_spider_suite, BenchmarkSuite, Split, SuiteConfig, Variant,
};
use cyclesql_provenance::rewrite_for_provenance;
use cyclesql_sql::{parse, Query};
use cyclesql_storage::{compile, reference, Database, ExecError, ExecOpts, ExecOutput};

fn small_config() -> SuiteConfig {
    SuiteConfig {
        seed: 0xD1FF,
        train_per_template: 1,
        eval_per_template: 1,
    }
}

fn suites() -> Vec<BenchmarkSuite> {
    vec![
        build_spider_suite(Variant::Spider, small_config()),
        build_science_suite(small_config()),
    ]
}

/// Forces a chunk boundary inside nearly every operator on the generated
/// databases (which all have more than three rows per table).
const TINY_BATCH: usize = 3;

fn tiny_batch() -> ExecOpts<'static> {
    ExecOpts {
        batch_rows: TINY_BATCH,
        ..ExecOpts::default()
    }
}

/// Morsel-pool widths the parallel sweep exercises: single-threaded
/// baseline, undersubscribed, and more workers than most scans have
/// morsels (idle workers must not perturb the merge).
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Batch sizes the parallel sweep crosses with [`THREAD_SWEEP`]:
/// one-row morsels (maximum interleaving), a size that splits operators
/// mid-stream, and the default single-morsel-per-small-table regime.
const BATCH_SWEEP: [usize; 3] = [1, 7, 1024];

/// Asserts `got` matches the reference outcome exactly — or fails with the
/// same error.
fn assert_matches_reference(
    reference: &Result<ExecOutput, ExecError>,
    got: Result<ExecOutput, ExecError>,
    engine: &str,
    ctx: &str,
) {
    match (reference, got) {
        (Ok(r), Ok(c)) => {
            assert_eq!(
                r.result.columns, c.result.columns,
                "columns diverge [{engine}]: {ctx}"
            );
            assert_eq!(
                format!("{:?}", r.result.rows),
                format!("{:?}", c.result.rows),
                "rows diverge [{engine}]: {ctx}"
            );
            assert_eq!(r.lineage, c.lineage, "lineage diverges [{engine}]: {ctx}");
        }
        (Err(r), Err(c)) => {
            assert_eq!(
                r.to_string(),
                c.to_string(),
                "errors diverge [{engine}]: {ctx}"
            );
        }
        (r, c) => panic!(
            "one path failed, the other succeeded [{engine}]: {ctx}\nreference: {:?}\n{engine}: {:?}",
            r.as_ref().map(|o| o.result.len()),
            c.map(|o| o.result.len())
        ),
    }
}

/// Asserts the columnar engine, at every batch size and thread count,
/// agrees with the reference interpreter on `q` exactly — or fails with
/// the same error.
fn assert_identical(db: &Database, q: &Query, ctx: &str) {
    let reference = reference::execute_with_lineage(db, q);
    let compiled = compile(db, q);
    match &compiled {
        Ok(plan) => {
            assert_matches_reference(&reference, plan.run(db), "columnar", ctx);
            assert_matches_reference(
                &reference,
                plan.run_opts(db, &tiny_batch()).map(|(out, _)| out),
                "columnar/tiny-batch",
                ctx,
            );
            assert_thread_invariant(db, plan, ctx);
        }
        Err(e) => {
            let r = reference.expect_err(&format!("reference succeeded but compile failed: {ctx}"));
            assert_eq!(
                r.to_string(),
                e.to_string(),
                "compile error diverges: {ctx}"
            );
        }
    }
}

/// Asserts the full thread × batch matrix produces output bit-identical
/// to the single-threaded columnar engine at the same batch size — rows,
/// lineage order, and `RunStats` — and that errors match too.
fn assert_thread_invariant(db: &Database, plan: &cyclesql_storage::CompiledQuery, ctx: &str) {
    for batch_rows in BATCH_SWEEP {
        let baseline = plan.run_opts(
            db,
            &ExecOpts {
                batch_rows,
                ..ExecOpts::default()
            },
        );
        for threads in THREAD_SWEEP {
            let got = plan.run_opts(
                db,
                &ExecOpts {
                    batch_rows,
                    threads,
                    ..ExecOpts::default()
                },
            );
            match (&baseline, got) {
                (Ok((b_out, b_stats)), Ok((out, stats))) => {
                    assert_eq!(
                        format!("{:?}", b_out.result.rows),
                        format!("{:?}", out.result.rows),
                        "rows diverge at {threads} threads, batch {batch_rows}: {ctx}"
                    );
                    assert_eq!(
                        b_out.lineage, out.lineage,
                        "lineage diverges at {threads} threads, batch {batch_rows}: {ctx}"
                    );
                    assert_eq!(
                        *b_stats, stats,
                        "RunStats diverge at {threads} threads, batch {batch_rows}: {ctx}"
                    );
                }
                (Err(b), Err(e)) => {
                    assert_eq!(
                        b.to_string(),
                        e.to_string(),
                        "errors diverge at {threads} threads, batch {batch_rows}: {ctx}"
                    );
                }
                (b, g) => panic!(
                    "outcome diverges at {threads} threads, batch {batch_rows}: {ctx}\n\
                     single-threaded: {:?}\nparallel: {:?}",
                    b.as_ref().map(|(o, _)| o.result.len()),
                    g.map(|(o, _)| o.result.len())
                ),
            }
        }
    }
}

#[test]
fn every_generated_gold_is_identical_across_engines() {
    let mut checked = 0usize;
    for suite in suites() {
        for split in [Split::Train, Split::Dev, Split::Test] {
            for item in suite.split(split) {
                let q = parse(&item.gold_sql).expect("generated gold parses");
                assert_identical(suite.database(item), &q, &item.gold_sql);
                checked += 1;
            }
        }
    }
    assert!(
        checked > 100,
        "suite generation produced only {checked} queries"
    );
}

#[test]
fn one_compiled_plan_serves_all_variant_databases() {
    let suite = build_spider_suite(Variant::Spider, small_config());
    let mut reused = 0usize;
    for item in suite.dev.iter() {
        let q = parse(&item.gold_sql).expect("generated gold parses");
        let dev_db = suite.database(item);
        // Compile once against the dev database's schema…
        let Ok(compiled) = compile(dev_db, &q) else {
            continue;
        };
        for seed in 1..=2 {
            let Some(variant) = suite.database_variant(&item.db_name, seed) else {
                continue;
            };
            // …and run it on each variant at both batch sizes: same rows
            // and lineage as a fresh interpretation over that variant.
            let direct = reference::execute_with_lineage(&variant, &q)
                .expect("reference executes on variant");
            for (engine, out) in [
                ("columnar", compiled.run(&variant)),
                (
                    "columnar/tiny-batch",
                    compiled
                        .run_opts(&variant, &tiny_batch())
                        .map(|(out, _)| out),
                ),
            ] {
                let out = out.unwrap_or_else(|e| {
                    panic!("{engine} failed on variant: {e} ({})", item.gold_sql)
                });
                assert_eq!(
                    format!("{:?}", direct.result.rows),
                    format!("{:?}", out.result.rows),
                    "variant rows diverge [{engine}]: {}",
                    item.gold_sql
                );
                assert_eq!(
                    direct.lineage, out.lineage,
                    "variant lineage [{engine}]: {}",
                    item.gold_sql
                );
            }
            reused += 1;
        }
    }
    assert!(reused > 20, "only {reused} plan reuses exercised");
}

#[test]
fn provenance_rewrites_are_identical_across_engines() {
    let suite = build_spider_suite(Variant::Spider, small_config());
    let mut checked = 0usize;
    for item in suite.dev.iter().take(60) {
        let db = suite.database(item);
        let q = parse(&item.gold_sql).expect("generated gold parses");
        let Ok(result) = cyclesql_storage::execute(db, &q) else {
            continue;
        };
        let Some(row) = result.rows.first() else {
            continue;
        };
        // The provenance rewrite produces the queries the feedback loop
        // actually runs; they must match the reference too.
        for core in rewrite_for_provenance(db, &q, &result.columns, row) {
            assert_identical(db, &core.query, &item.gold_sql);
            checked += 1;
        }
    }
    assert!(checked > 10, "only {checked} rewrites exercised");
}

#[test]
fn mid_morsel_evaluation_errors_match_at_every_thread_count() {
    // An aggregate in WHERE compiles but raises "aggregate used outside of
    // an aggregate context" the moment the filter evaluates a row — so
    // with one-row morsels, every morsel errors mid-stream. Whichever
    // worker trips it first, the engine must surface exactly the
    // reference interpreter's error at every width
    // (first-erroring-morsel-in-order wins).
    let suite = build_spider_suite(Variant::Spider, small_config());
    let db = suite
        .database_variant("world_1", 1)
        .expect("world_1 domain exists");
    let db = &db;
    let q = parse("SELECT name FROM country WHERE count(*) > 1").expect("parses");
    let plan = compile(db, &q).expect("aggregate placement is a runtime error");
    let expected = reference::execute_with_lineage(db, &q)
        .expect_err("reference errors")
        .to_string();
    for batch_rows in BATCH_SWEEP {
        for threads in THREAD_SWEEP {
            let err = plan
                .run_opts(
                    db,
                    &ExecOpts {
                        batch_rows,
                        threads,
                        ..ExecOpts::default()
                    },
                )
                .expect_err("columnar engine errors")
                .to_string();
            assert_eq!(
                expected, err,
                "error diverges at {threads} threads, batch {batch_rows}"
            );
        }
    }
}

#[test]
fn dialect_frontier_fixtures_are_identical_across_engines() {
    // Hand-written fixtures for the constructs the generated suites only
    // sample sparsely: CTEs (including chained definitions and base-table
    // shadowing), CASE in every evaluation site, and each outer-join
    // flavor — all through the full thread × batch sweep.
    let suite = build_spider_suite(Variant::Spider, small_config());
    let db = suite
        .database_variant("world_1", 1)
        .expect("world_1 domain exists");
    let fixtures = [
        // CTEs: single, chained, joined against a base table, shadowing.
        "WITH big AS (SELECT name, population FROM country WHERE population > 1000000) \
         SELECT count(*) FROM big",
        "WITH a AS (SELECT code FROM country WHERE continent = 'Europe'), \
         b AS (SELECT countrycode FROM city) \
         SELECT count(*) FROM a JOIN b ON a.code = b.countrycode",
        "WITH country AS (SELECT name FROM country WHERE population > 1000000) \
         SELECT name FROM country ORDER BY name",
        "WITH src AS (SELECT continent, population FROM country) \
         SELECT continent, count(*) FROM src GROUP BY continent",
        // CASE: projection, searched vs operand form, WHERE, group context.
        "SELECT name, CASE WHEN population > 1000000 THEN 'big' ELSE 'small' END \
         FROM country ORDER BY name",
        "SELECT name, CASE continent WHEN 'Europe' THEN 'EU' WHEN 'Asia' THEN 'AS' END \
         FROM country ORDER BY name",
        "SELECT name FROM country \
         WHERE CASE WHEN population > 1000000 THEN 1 ELSE 0 END = 1 ORDER BY name",
        "SELECT continent, CASE WHEN count(*) > 2 THEN 'many' ELSE 'few' END \
         FROM country GROUP BY continent",
        // Outer joins: each flavor, plus aggregation over padded rows.
        "SELECT T1.name, T2.name FROM country AS T1 LEFT JOIN city AS T2 \
         ON T1.code = T2.countrycode ORDER BY T1.name, T2.name",
        "SELECT T1.name, T2.name FROM city AS T1 RIGHT JOIN country AS T2 \
         ON T1.countrycode = T2.code ORDER BY T2.name, T1.name",
        "SELECT T1.name, T2.name FROM country AS T1 FULL OUTER JOIN city AS T2 \
         ON T1.code = T2.countrycode ORDER BY T1.name, T2.name",
        "SELECT T1.continent, count(T2.name) FROM country AS T1 LEFT JOIN city AS T2 \
         ON T1.code = T2.countrycode GROUP BY T1.continent",
        // All three combined in one plan.
        "WITH eu AS (SELECT code, name FROM country WHERE continent = 'Europe') \
         SELECT eu.name, CASE WHEN T2.population > 1000000 THEN 'big' ELSE 'small' END \
         FROM eu LEFT JOIN city AS T2 ON eu.code = T2.countrycode \
         ORDER BY eu.name, T2.name",
    ];
    for sql in fixtures {
        let q = parse(sql).expect("fixture parses");
        assert_identical(&db, &q, sql);
    }
}

#[test]
fn dialect_frontier_runtime_errors_match_across_engines() {
    // Error parity: a CTE body that raises at materialization time and a
    // CASE branch that raises mid-evaluation must surface the reference's
    // message at every thread and batch setting. The rest are races: each
    // query can raise two different messages, and the engine must raise
    // the one the reference raises first.
    let suite = build_spider_suite(Variant::Spider, small_config());
    let db = suite
        .database_variant("world_1", 1)
        .expect("world_1 domain exists");
    for sql in [
        "WITH bad AS (SELECT name FROM country WHERE count(*) > 1) SELECT name FROM bad",
        "SELECT CASE WHEN population > 0 THEN count(*) ELSE 0 END FROM country",
        // sum(*) vs avg(*) in one projection list.
        "SELECT sum(*), avg(*) FROM country",
        "SELECT continent, max(*), min(*) FROM country GROUP BY continent",
        // HAVING vs projection, and ORDER BY vs projection.
        "SELECT continent, avg(*) FROM country GROUP BY continent HAVING sum(*) > 1",
        "SELECT continent, sum(*) FROM country GROUP BY continent ORDER BY avg(*)",
        // An aggregate in WHERE vs F(*) in a hoisted subquery.
        "SELECT name FROM country WHERE code IN (SELECT max(*) FROM city) AND sum(population) > 0",
        "SELECT avg(*) FROM country WHERE code IN (SELECT countrycode FROM city WHERE count(*) > 1)",
        // CTE body vs main body, and between two CTE bodies.
        "WITH a AS (SELECT sum(*) FROM country) SELECT avg(*) FROM a",
        "WITH a AS (SELECT name FROM country WHERE count(*) > 1), \
         b AS (SELECT min(*) FROM city) SELECT name FROM a",
        "WITH a AS (SELECT name FROM country) SELECT name FROM a WHERE sum(*) > 1",
        // UNION branches, and a set operation over a grouped branch.
        "SELECT sum(*) FROM country UNION SELECT avg(*) FROM city",
        "SELECT name FROM country WHERE count(*) > 1 UNION SELECT max(*) FROM city",
        "SELECT continent FROM country GROUP BY continent HAVING avg(*) > 1 \
         EXCEPT SELECT name FROM city WHERE sum(population) > 0",
        // CASE branches that raise different messages on different groups.
        "SELECT continent, CASE WHEN count(*) > 2 THEN sum(*) ELSE avg(*) END \
         FROM country GROUP BY continent",
    ] {
        let q = parse(sql).expect("fixture parses");
        assert_identical(&db, &q, sql);
    }
}
