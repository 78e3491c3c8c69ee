//! EXPLAIN ANALYZE counter invariance for the columnar engine, over the
//! four plan classes the golden test pins (join, group/aggregate, set
//! operation, subquery prologue) plus nested-loop, CTE, CASE and outer-join
//! plans.
//!
//! The engine accumulates each operator's in/out/cmp/hash counters across
//! chunks, and sums them per operator across morsels in morsel-index
//! order, so the timing-free profile must be *identical* at every batch
//! size (including degenerate one-row chunks and sizes that split
//! operators mid-stream) and every worker count. Each query's expected
//! profile is pinned as a golden; the goldens were recorded from the
//! row-at-a-time interpreter that preceded this engine, so they also pin
//! the operator accounting it defined. Rows and lineage are compared to
//! the reference interpreter: the profiled run is the real run.

use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
use cyclesql_sql::parse;
use cyclesql_storage::{compile, reference, Database, ExecOpts};

/// Chunk sizes that exercise the interesting boundaries: one row per
/// batch, sizes that split every operator mid-stream, and one larger than
/// any table (single chunk, the default regime).
const CHUNK_SWEEP: [usize; 4] = [1, 3, 7, 1024];

/// Morsel-pool widths crossed with [`CHUNK_SWEEP`]: the single-threaded
/// baseline, undersubscribed, and more workers than morsels.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The same pinned world_1 variant the golden plan test uses.
fn world() -> Database {
    let suite = build_spider_suite(
        Variant::Spider,
        SuiteConfig {
            seed: 0x601D,
            train_per_template: 1,
            eval_per_template: 1,
        },
    );
    suite
        .database_variant("world_1", 1)
        .expect("world_1 domain exists")
}

/// Asserts that every (batch size × worker count) cell renders exactly
/// `golden` — same operator steps and order, same in/out/cmp/hash
/// counters, same prologue measurements — and that each returns the
/// reference interpreter's rows and lineage.
fn assert_counter_parity(db: &Database, sql: &str, golden: &str) {
    let query = parse(sql).expect("query parses");
    let plan = compile(db, &query).expect("query compiles");
    let expected = reference::execute_with_lineage(db, &query).expect("reference executes");
    for chunk in CHUNK_SWEEP {
        for threads in THREAD_SWEEP {
            let opts = ExecOpts {
                batch_rows: chunk,
                threads,
                ..ExecOpts::default()
            };
            let (out, prof) = plan
                .run_opts_analyzed(db, &opts)
                .expect("columnar engine runs");
            // The timing-free rendering covers step shapes, operator order,
            // and every in/out/cmp/hash counter in one comparison.
            assert_eq!(
                prof.render(false),
                golden,
                "profile diverges at {threads} threads, batch size {chunk}: {sql}"
            );
            assert_eq!(
                format!("{:?}", expected.result.rows),
                format!("{:?}", out.result.rows),
                "rows diverge at {threads} threads, batch size {chunk}: {sql}"
            );
            assert_eq!(
                expected.lineage, out.lineage,
                "lineage diverges at {threads} threads, batch size {chunk}: {sql}"
            );
        }
    }
}

#[test]
fn join_counters_are_batch_size_invariant() {
    let db = world();
    assert_counter_parity(
        &db,
        "SELECT T1.name, T2.name FROM country AS T1 JOIN city AS T2 \
         ON T1.code = T2.countrycode ORDER BY T1.name LIMIT 5",
        "\
SCAN country (26 rows) | in=26 out=26
HASH JOIN city (66 rows) ON t1.code = t2.countrycode | in=26 out=66 cmp=26 hash=66
SORT (1 key(s)) | in=66 out=66
LIMIT 5 | in=66 out=5
RESULT 5 rows
",
    );
}

#[test]
fn aggregate_counters_are_batch_size_invariant() {
    let db = world();
    assert_counter_parity(
        &db,
        "SELECT continent, count(*) FROM country GROUP BY continent",
        "\
SCAN country (26 rows) | in=26 out=26
AGGREGATE (1 group key(s)) | in=26 out=6
RESULT 6 rows
",
    );
}

#[test]
fn set_op_counters_are_batch_size_invariant() {
    let db = world();
    assert_counter_parity(
        &db,
        "SELECT name FROM country UNION SELECT name FROM city",
        "\
SCAN country (26 rows) | in=26 out=26
SET UNION | in=92 out=92
SCAN city (66 rows) | in=66 out=66
RESULT 92 rows
",
    );
}

#[test]
fn subquery_prologue_counters_are_batch_size_invariant() {
    let db = world();
    assert_counter_parity(
        &db,
        "SELECT name FROM country WHERE code IN (SELECT countrycode FROM city)",
        "\
PROLOGUE SUBQUERY 0 [in-set] -> 66 rows
SCAN country (26 rows) | in=26 out=26
FILTER code IN (SELECT countrycode FROM city) | in=26 out=25 cmp=26
RESULT 25 rows
",
    );
}

#[test]
fn nested_loop_and_distinct_counters_are_batch_size_invariant() {
    // A non-equi join forces the nested-loop strategy; DISTINCT and a
    // filter exercise the remaining batch kernels in one plan.
    let db = world();
    assert_counter_parity(
        &db,
        "SELECT DISTINCT T1.continent FROM country AS T1 JOIN city AS T2 \
         ON T1.population > T2.population WHERE T2.population > 1000000",
        "\
SCAN country (26 rows) | in=26 out=26
NESTED LOOP JOIN city (66 rows) ON t1.population > t2.population | in=26 out=1596 cmp=1716
FILTER t2.population > 1000000 | in=1596 out=1570 cmp=1596
DISTINCT | in=1570 out=6
RESULT 6 rows
",
    );
}

#[test]
fn cte_counters_are_batch_size_invariant() {
    let db = world();
    assert_counter_parity(
        &db,
        "WITH big AS (SELECT code, name FROM country WHERE population > 1000000) \
         SELECT count(*) FROM big",
        "\
PROLOGUE SUBQUERY 0 [cte] -> 26 rows
SCAN big (26 rows) | in=26 out=26
AGGREGATE (0 group key(s)) | in=26 out=1
RESULT 1 rows
",
    );
}

#[test]
fn case_counters_are_batch_size_invariant() {
    let db = world();
    assert_counter_parity(
        &db,
        "SELECT name, CASE WHEN population > 1000000 THEN 'big' ELSE 'small' END \
         FROM country ORDER BY name LIMIT 5",
        "\
SCAN country (26 rows) | in=26 out=26
SORT (1 key(s)) | in=26 out=26
LIMIT 5 | in=26 out=5
RESULT 5 rows
",
    );
}

#[test]
fn outer_join_counters_are_batch_size_invariant() {
    let db = world();
    assert_counter_parity(
        &db,
        "SELECT T1.name, T2.name FROM country AS T1 FULL OUTER JOIN city AS T2 \
         ON T1.code = T2.countrycode ORDER BY T1.name, T2.name LIMIT 10",
        "\
SCAN country (26 rows) | in=26 out=26
HASH JOIN city (66 rows) ON t1.code = t2.countrycode | in=26 out=67 cmp=26 hash=66
SORT (2 key(s)) | in=67 out=67
LIMIT 10 | in=67 out=10
RESULT 10 rows
",
    );
}
