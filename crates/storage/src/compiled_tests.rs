//! Tests pinning the compile-once pipeline to the reference interpreter:
//! subquery hoisting runs prologues exactly once per `run`, compile-time
//! resolution errors match the interpreter's runtime errors, and set
//! operations dedup/merge lineage identically under the keyed rewrite.

use crate::compile::compile;
use crate::reference;
use crate::run::ExecOpts;
use crate::schema::{ColumnDef, DataType, DatabaseSchema, TableSchema};
use crate::table::Database;
use crate::value::Value;
use cyclesql_sql::parse;

fn flight_db() -> Database {
    let mut schema = DatabaseSchema::new("flights");
    schema.add_table(TableSchema::new(
        "aircraft",
        vec![
            ColumnDef::new("aid", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("distance", DataType::Int),
        ],
    ));
    schema.add_table(TableSchema::new(
        "flight",
        vec![
            ColumnDef::new("flno", DataType::Int),
            ColumnDef::new("aid", DataType::Int),
            ColumnDef::new("price", DataType::Float),
        ],
    ));
    let mut db = Database::new(schema);
    db.insert(
        "aircraft",
        vec![
            Value::Int(1),
            Value::from("Boeing 747-400"),
            Value::Int(8430),
        ],
    );
    db.insert(
        "aircraft",
        vec![
            Value::Int(2),
            Value::from("Boeing 737-800"),
            Value::Int(3383),
        ],
    );
    db.insert(
        "aircraft",
        vec![
            Value::Int(3),
            Value::from("Airbus A340-300"),
            Value::Int(7120),
        ],
    );
    db.insert(
        "flight",
        vec![Value::Int(99), Value::Int(1), Value::Float(235.98)],
    );
    db.insert(
        "flight",
        vec![Value::Int(13), Value::Int(3), Value::Float(220.98)],
    );
    db.insert(
        "flight",
        vec![Value::Int(346), Value::Int(3), Value::Float(320.12)],
    );
    db.insert(
        "flight",
        vec![Value::Int(387), Value::Int(2), Value::Float(110.65)],
    );
    db
}

/// Asserts compiled output and reference output are *strictly* identical:
/// columns, rows (by Debug rendering, stricter than `Value`'s sql_eq-based
/// `PartialEq`), and lineage including order.
fn assert_paths_identical(db: &Database, sql: &str) {
    let q = parse(sql).unwrap();
    let reference = reference::execute_with_lineage(db, &q).unwrap();
    let compiled = compile(db, &q).unwrap().run(db).unwrap();
    assert_eq!(
        reference.result.columns, compiled.result.columns,
        "columns for {sql}"
    );
    assert_eq!(
        format!("{:?}", reference.result.rows),
        format!("{:?}", compiled.result.rows),
        "rows for {sql}"
    );
    assert_eq!(reference.lineage, compiled.lineage, "lineage for {sql}");
}

// ---------------------------------------------------------------------------
// Subquery hoisting
// ---------------------------------------------------------------------------

#[test]
fn in_subquery_prologue_runs_exactly_once_per_run() {
    let db = flight_db();
    // Four outer rows: the tree-walker would evaluate the subquery four
    // times; the compiled plan hoists it into a prologue that runs once.
    let q = parse(
        "SELECT flno FROM flight WHERE aid IN (SELECT aid FROM aircraft WHERE distance > 5000)",
    )
    .unwrap();
    let compiled = compile(&db, &q).unwrap();
    let (out, stats) = compiled.run_opts(&db, &ExecOpts::default()).unwrap();
    assert_eq!(stats.subquery_runs, 1);
    assert_eq!(out.result.len(), 3); // flights on aircraft 1 and 3

    // The prologue result is not baked in at compile time: a second run
    // against a database with different data re-executes it.
    let mut other = flight_db();
    other.table_mut("aircraft").unwrap().rows.clear();
    let (out2, stats2) = compiled.run_opts(&other, &ExecOpts::default()).unwrap();
    assert_eq!(stats2.subquery_runs, 1);
    assert!(out2.result.is_empty());
}

#[test]
fn exists_and_scalar_subqueries_also_hoist_once() {
    let db = flight_db();
    for sql in [
        "SELECT name FROM aircraft WHERE EXISTS (SELECT * FROM flight WHERE price > 300)",
        "SELECT flno FROM flight WHERE price > (SELECT avg(price) FROM flight)",
    ] {
        let q = parse(sql).unwrap();
        let (_, stats) = compile(&db, &q)
            .unwrap()
            .run_opts(&db, &ExecOpts::default())
            .unwrap();
        assert_eq!(stats.subquery_runs, 1, "for {sql}");
    }
}

#[test]
fn nested_subqueries_count_each_prologue() {
    let db = flight_db();
    let q = parse(
        "SELECT flno FROM flight WHERE aid IN \
         (SELECT aid FROM aircraft WHERE distance > (SELECT avg(distance) FROM aircraft))",
    )
    .unwrap();
    let (out, stats) = compile(&db, &q)
        .unwrap()
        .run_opts(&db, &ExecOpts::default())
        .unwrap();
    // Outer IN prologue plus the scalar prologue nested inside it.
    assert_eq!(stats.subquery_runs, 2);
    assert_eq!(out.result.len(), 3);
    assert_paths_identical(
        &db,
        "SELECT flno FROM flight WHERE aid IN \
         (SELECT aid FROM aircraft WHERE distance > (SELECT avg(distance) FROM aircraft))",
    );
}

// ---------------------------------------------------------------------------
// Compile-time resolution errors
// ---------------------------------------------------------------------------

#[test]
fn compile_errors_match_interpreter_errors() {
    let db = flight_db();
    for sql in [
        "SELECT nosuch FROM flight",
        "SELECT t9.flno FROM flight",
        "SELECT flno FROM nosuch_table",
        "SELECT nosuch.* FROM flight",
        "SELECT flno FROM flight WHERE bogus = 1",
        "SELECT flno FROM flight ORDER BY bogus",
        "SELECT flno FROM flight GROUP BY bogus",
        "SELECT flno FROM flight UNION SELECT aid, name FROM aircraft",
        "SELECT count(*) FROM flight JOIN nosuch ON flno = x",
        "SELECT flno FROM flight WHERE aid IN (SELECT bogus FROM aircraft)",
    ] {
        let q = parse(sql).unwrap();
        let compile_err = compile(&db, &q).expect_err(sql).to_string();
        let reference_err = reference::execute(&db, &q).expect_err(sql).to_string();
        assert_eq!(compile_err, reference_err, "error mismatch for {sql}");
    }
}

#[test]
fn resolution_happens_at_compile_not_run() {
    let db = flight_db();
    let q = parse("SELECT nosuch FROM flight").unwrap();
    // The error surfaces from `compile`; there is no plan to run.
    assert!(compile(&db, &q).is_err());
}

// ---------------------------------------------------------------------------
// Set operations under keyed dedup
// ---------------------------------------------------------------------------

#[test]
fn set_op_dedup_matches_reference() {
    let db = flight_db();
    for sql in [
        "SELECT aid FROM flight UNION SELECT aid FROM aircraft",
        "SELECT aid FROM flight INTERSECT SELECT aid FROM aircraft",
        "SELECT aid FROM aircraft EXCEPT SELECT aid FROM flight",
        "SELECT aid FROM flight EXCEPT SELECT aid FROM aircraft WHERE distance > 5000",
        "SELECT aid FROM flight UNION SELECT aid FROM aircraft ORDER BY aid DESC LIMIT 3",
    ] {
        assert_paths_identical(&db, sql);
    }
}

#[test]
fn intersect_lineage_merge_order_is_preserved() {
    let db = flight_db();
    let q = parse("SELECT aid FROM flight INTERSECT SELECT aid FROM aircraft").unwrap();
    let out = crate::exec::execute_with_lineage(&db, &q).unwrap();
    // Each surviving left row's lineage starts with its own source and then
    // appends the first matching right row's sources, in that order.
    for lin in &out.lineage {
        assert_eq!(lin.len(), 2);
        assert_eq!(lin[0].table.as_ref(), "flight");
        assert_eq!(lin[1].table.as_ref(), "aircraft");
    }
    assert_paths_identical(
        &db,
        "SELECT aid FROM flight INTERSECT SELECT aid FROM aircraft",
    );
}

// ---------------------------------------------------------------------------
// Broad differential spots (grouping, joins, distinct, expressions)
// ---------------------------------------------------------------------------

#[test]
fn differential_spot_checks() {
    let db = flight_db();
    for sql in [
        "SELECT count(*) FROM flight",
        "SELECT aid, count(*), avg(price) FROM flight GROUP BY aid HAVING count(*) > 1",
        "SELECT DISTINCT aid FROM flight ORDER BY aid",
        "SELECT T1.flno, T2.name FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid \
         WHERE T2.distance > 5000 ORDER BY T1.flno",
        "SELECT name FROM aircraft WHERE aid NOT IN (SELECT aid FROM flight WHERE price > 300)",
        "SELECT flno FROM flight WHERE price BETWEEN 200 AND 330 ORDER BY price DESC",
        "SELECT name FROM aircraft WHERE name LIKE 'Boeing%'",
        "SELECT max(price) - min(price) FROM flight",
        "SELECT aid FROM flight GROUP BY aid ORDER BY count(*) DESC, aid LIMIT 2",
        "SELECT T2.name, sum(T1.price) FROM flight AS T1 LEFT JOIN aircraft AS T2 \
         ON T1.aid = T2.aid GROUP BY T2.name",
    ] {
        assert_paths_identical(&db, sql);
    }
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution
// ---------------------------------------------------------------------------

#[test]
fn morsel_pool_output_is_thread_count_invariant() {
    let db = flight_db();
    // One-row morsels make every operator cross a morsel boundary, and 8
    // workers over at most four morsels leaves some workers idle — the
    // in-order merge must hide all of it.
    for sql in [
        "SELECT aid, count(*), avg(price) FROM flight GROUP BY aid HAVING count(*) > 1",
        "SELECT T1.flno, T2.name FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid \
         ORDER BY T1.flno",
        "SELECT DISTINCT aid FROM flight",
        "SELECT count(*) FROM flight WHERE price > 10000",
    ] {
        let q = parse(sql).unwrap();
        let plan = compile(&db, &q).unwrap();
        for batch_rows in [1, 2, 1024] {
            let opts = ExecOpts {
                batch_rows,
                ..ExecOpts::default()
            };
            let (base, base_stats) = plan.run_opts(&db, &opts).unwrap();
            for threads in [2, 4, 8] {
                let opts = ExecOpts {
                    batch_rows,
                    threads,
                    ..ExecOpts::default()
                };
                let (out, stats) = plan.run_opts(&db, &opts).unwrap();
                assert_eq!(
                    format!("{:?}", base.result.rows),
                    format!("{:?}", out.result.rows),
                    "rows at {threads} threads, batch {batch_rows}: {sql}"
                );
                assert_eq!(
                    base.lineage, out.lineage,
                    "lineage at {threads} threads, batch {batch_rows}: {sql}"
                );
                assert_eq!(base_stats, stats, "stats at {threads} threads: {sql}");
            }
        }
    }
}

#[test]
fn vectorized_prologue_keeps_subquery_run_counts() {
    let db = flight_db();
    // The prologue executes through the columnar kernels, whose stats
    // accumulate across nested runs; each hoisted subquery must still
    // count exactly once, at any batch size or thread count.
    let q = parse(
        "SELECT flno FROM flight WHERE aid IN \
         (SELECT aid FROM aircraft WHERE distance > (SELECT avg(distance) FROM aircraft))",
    )
    .unwrap();
    let plan = compile(&db, &q).unwrap();
    for batch_rows in [1, 1024] {
        for threads in [1, 4] {
            let opts = ExecOpts {
                batch_rows,
                threads,
                ..ExecOpts::default()
            };
            let (out, stats) = plan.run_opts(&db, &opts).unwrap();
            assert_eq!(
                stats.subquery_runs, 2,
                "batch {batch_rows}, {threads} threads"
            );
            assert_eq!(out.result.len(), 3);
        }
    }
}
