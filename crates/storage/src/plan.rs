//! Query-plan description: a human-readable account of how the executor
//! will evaluate a query (scan order, join strategy, filters, grouping,
//! set operations). Rendered directly from the *compiled* plan
//! ([`crate::compile::compile`]), so the description reports the decisions
//! the engine actually made — it cannot drift from dispatch logic the way
//! a hand-mirrored describer could.

use crate::compile::compile;
use crate::error::ExecError;
use crate::ir::{CBody, CCore, CompiledQuery, JoinStrategy};
use crate::profile::PlanProfile;
use crate::run::ExecOpts;
use crate::table::Database;
use cyclesql_sql::Query;
use std::fmt::Write as _;

/// One step of the described plan.
#[allow(missing_docs)] // field names are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Sequential scan of a base table.
    Scan { table: String, rows: usize },
    /// Hash join on a single equality key.
    HashJoin {
        table: String,
        rows: usize,
        on: String,
    },
    /// Nested-loop join (non-equi or compound condition, or no condition).
    NestedLoopJoin {
        table: String,
        rows: usize,
        on: Option<String>,
    },
    /// Filter application.
    Filter { predicate: String },
    /// Grouping / aggregation.
    Aggregate { group_keys: usize, having: bool },
    /// Duplicate elimination.
    Distinct,
    /// Sorting.
    Sort { keys: usize },
    /// Row limit.
    Limit { n: u64 },
    /// Set operation combining two sub-plans.
    SetOp { op: String },
}

/// A described plan: steps in execution order (set-operation branches are
/// flattened with `SetOp` separators, mirroring the executor).
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    /// The steps.
    pub steps: Vec<PlanStep>,
}

impl QueryPlan {
    /// Pretty text rendering, one step per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            let line = match step {
                PlanStep::Scan { table, rows } => format!("SCAN {table} ({rows} rows)"),
                PlanStep::HashJoin { table, rows, on } => {
                    format!("HASH JOIN {table} ({rows} rows) ON {on}")
                }
                PlanStep::NestedLoopJoin { table, rows, on } => match on {
                    Some(on) => format!("NESTED LOOP JOIN {table} ({rows} rows) ON {on}"),
                    None => format!("NESTED LOOP JOIN {table} ({rows} rows) [cross]"),
                },
                PlanStep::Filter { predicate } => format!("FILTER {predicate}"),
                PlanStep::Aggregate { group_keys, having } => format!(
                    "AGGREGATE ({} group key(s){})",
                    group_keys,
                    if *having { ", HAVING" } else { "" }
                ),
                PlanStep::Distinct => "DISTINCT".to_string(),
                PlanStep::Sort { keys } => format!("SORT ({keys} key(s))"),
                PlanStep::Limit { n } => format!("LIMIT {n}"),
                PlanStep::SetOp { op } => format!("SET {op}"),
            };
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Whether any join uses the hash strategy.
    pub fn uses_hash_join(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, PlanStep::HashJoin { .. }))
    }
}

/// Describes how the executor will evaluate `query` against `db` by
/// compiling it and rendering the compiled plan: the join strategies,
/// grouping decisions, and step order shown are the ones the run loop
/// will actually dispatch. A query that fails to compile (and therefore
/// cannot execute) yields an empty plan.
pub fn describe_plan(db: &Database, query: &Query) -> QueryPlan {
    match compile(db, query) {
        Ok(compiled) => describe_compiled(db, &compiled),
        Err(_) => QueryPlan::default(),
    }
}

/// EXPLAIN ANALYZE: compiles `query`, executes it once against `db` with
/// per-operator instrumentation, and returns the measured plan — the same
/// operator sequence [`describe_plan`] reports, annotated with observed
/// rows in/out, probe and comparison counts, hash-index sizes, prologue
/// subquery timings, and per-operator wall time. Render the result with
/// [`PlanProfile::render`] (`with_timing: false` is deterministic for a
/// given database, which golden tests pin).
///
/// # Errors
///
/// Returns [`ExecError`] when the query cannot compile or its execution
/// fails — the same failures [`crate::exec::execute`] surfaces.
pub fn describe_plan_analyze(db: &Database, query: &Query) -> Result<PlanProfile, ExecError> {
    let compiled = compile(db, query)?;
    let (_, profile) = compiled.run_opts_analyzed(db, &ExecOpts::default())?;
    Ok(profile)
}

fn describe_compiled(db: &Database, compiled: &CompiledQuery) -> QueryPlan {
    let mut plan = QueryPlan::default();
    describe_body(db, compiled, &compiled.body, &mut plan);
    if !compiled.order_dirs.is_empty() {
        plan.steps.push(PlanStep::Sort {
            keys: compiled.order_dirs.len(),
        });
    }
    if let Some(n) = compiled.limit {
        plan.steps.push(PlanStep::Limit { n });
    }
    plan
}

fn describe_body(db: &Database, compiled: &CompiledQuery, body: &CBody, plan: &mut QueryPlan) {
    match body {
        CBody::Select(core) => describe_core(db, compiled, core, plan),
        CBody::SetOp { op, left, right } => {
            describe_body(db, compiled, left, plan);
            plan.steps.push(PlanStep::SetOp {
                op: op.keyword().to_string(),
            });
            describe_body(db, compiled, right, plan);
        }
    }
}

fn describe_core(db: &Database, compiled: &CompiledQuery, core: &CCore, plan: &mut QueryPlan) {
    let table_name = |id: u32| -> &str { &compiled.tables[id as usize] };
    let row_count =
        |id: u32| -> usize { db.table_exact(table_name(id)).map(|t| t.len()).unwrap_or(0) };
    plan.steps.push(PlanStep::Scan {
        table: table_name(core.base).to_string(),
        rows: row_count(core.base),
    });
    for join in &core.joins {
        let table = table_name(join.table).to_string();
        let rows = row_count(join.table);
        match &join.strategy {
            JoinStrategy::Hash { .. } => plan.steps.push(PlanStep::HashJoin {
                table,
                rows,
                on: join.on_display.clone().unwrap_or_default(),
            }),
            JoinStrategy::Loop { .. } => plan.steps.push(PlanStep::NestedLoopJoin {
                table,
                rows,
                on: join.on_display.clone(),
            }),
        }
    }
    if let Some(predicate) = &core.filter_display {
        plan.steps.push(PlanStep::Filter {
            predicate: predicate.clone(),
        });
    }
    if core.grouped {
        plan.steps.push(PlanStep::Aggregate {
            group_keys: core.group_by.len(),
            having: core.having.is_some(),
        });
    }
    if core.distinct {
        plan.steps.push(PlanStep::Distinct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, DatabaseSchema, TableSchema};
    use crate::value::Value;
    use cyclesql_sql::parse;

    fn db() -> Database {
        let mut schema = DatabaseSchema::new("d");
        schema.add_table(TableSchema::new(
            "a",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("x", DataType::Int),
            ],
        ));
        schema.add_table(TableSchema::new(
            "b",
            vec![
                ColumnDef::new("bid", DataType::Int),
                ColumnDef::new("aid", DataType::Int),
            ],
        ));
        let mut d = Database::new(schema);
        d.insert("a", vec![Value::Int(1), Value::Int(10)]);
        d.insert("b", vec![Value::Int(1), Value::Int(1)]);
        d.insert("b", vec![Value::Int(2), Value::Int(1)]);
        d
    }

    #[test]
    fn equi_join_described_as_hash() {
        let d = db();
        let q = parse("SELECT count(*) FROM b AS t1 JOIN a AS t2 ON t1.aid = t2.id").unwrap();
        let plan = describe_plan(&d, &q);
        assert!(plan.uses_hash_join(), "{}", plan.render());
        assert!(
            plan.render().contains("HASH JOIN a (1 rows)"),
            "{}",
            plan.render()
        );
    }

    #[test]
    fn compound_on_described_as_nested_loop() {
        let d = db();
        let q =
            parse("SELECT count(*) FROM b AS t1 JOIN a AS t2 ON t1.aid = t2.id AND 1 = 1").unwrap();
        let plan = describe_plan(&d, &q);
        assert!(!plan.uses_hash_join(), "{}", plan.render());
    }

    #[test]
    fn cross_join_described_as_nested_loop() {
        let d = db();
        let q = parse("SELECT count(*) FROM a, b").unwrap();
        let plan = describe_plan(&d, &q);
        assert!(plan.render().contains("[cross]"), "{}", plan.render());
    }

    #[test]
    fn full_pipeline_steps_in_order() {
        let d = db();
        let q = parse(
            "SELECT DISTINCT t2.x, count(*) FROM b AS t1 JOIN a AS t2 ON t1.aid = t2.id \
             WHERE t1.bid > 0 GROUP BY t2.x HAVING count(*) > 1 ORDER BY t2.x LIMIT 5",
        )
        .unwrap();
        let plan = describe_plan(&d, &q);
        let rendered = plan.render();
        let order = [
            "SCAN",
            "HASH JOIN",
            "FILTER",
            "AGGREGATE",
            "DISTINCT",
            "SORT",
            "LIMIT",
        ];
        let mut last = 0;
        for marker in order {
            let pos = rendered[last..]
                .find(marker)
                .unwrap_or_else(|| panic!("{marker} missing or out of order in:\n{rendered}"));
            last += pos;
        }
        assert!(rendered.contains("HAVING"));
    }

    #[test]
    fn set_op_branches_flattened() {
        let d = db();
        let q = parse("SELECT x FROM a UNION SELECT bid FROM b").unwrap();
        let plan = describe_plan(&d, &q);
        assert!(plan.render().contains("SET UNION"), "{}", plan.render());
        assert_eq!(
            plan.steps
                .iter()
                .filter(|s| matches!(s, PlanStep::Scan { .. }))
                .count(),
            2
        );
    }

    /// The description now derives from the compiled plan, so it reports
    /// the executor's real dispatch: an unqualified `ON aid = id` resolves
    /// at compile time and hashes (the old hand-mirrored describer had to
    /// conservatively claim a nested loop here).
    #[test]
    fn description_matches_executor_dispatch_rules() {
        let d = db();
        let q = parse("SELECT count(*) FROM b JOIN a ON aid = id").unwrap();
        let plan = describe_plan(&d, &q);
        assert!(plan.uses_hash_join(), "{}", plan.render());
        let r = crate::exec::execute(&d, &q).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    /// An uncompilable (hence unexecutable) query yields an empty plan
    /// rather than a misleading description.
    #[test]
    fn uncompilable_query_has_empty_plan() {
        let d = db();
        let q = parse("SELECT nosuch FROM a").unwrap();
        assert!(describe_plan(&d, &q).steps.is_empty());
        assert!(crate::exec::execute(&d, &q).is_err());
    }

    /// The analyzed plan is the described plan plus measurements: same
    /// operators, same order, and the observed row flow is consistent
    /// between adjacent operators.
    #[test]
    fn analyze_matches_describe_and_reconciles_rows() {
        let d = db();
        let q = parse(
            "SELECT DISTINCT t2.x, count(*) FROM b AS t1 JOIN a AS t2 ON t1.aid = t2.id \
             WHERE t1.bid > 0 GROUP BY t2.x ORDER BY t2.x LIMIT 5",
        )
        .unwrap();
        let described = describe_plan(&d, &q);
        let profile = describe_plan_analyze(&d, &q).unwrap();
        let steps: Vec<&PlanStep> = profile.ops.iter().map(|o| &o.step).collect();
        assert_eq!(steps.len(), described.steps.len());
        for (got, want) in steps.iter().zip(&described.steps) {
            assert_eq!(*got, want, "analyze drifted from describe");
        }
        // Row flow: scan feeds the join, the join feeds the filter, the
        // final operator's output is the result cardinality.
        assert_eq!(profile.ops[0].rows_out, 2, "scan of b");
        assert_eq!(profile.ops[1].rows_in, 2);
        assert!(profile.ops[1].hash_entries > 0, "hash build side counted");
        assert_eq!(profile.ops.last().unwrap().rows_out, profile.rows_out);
        let exec_rows = crate::exec::execute(&d, &q).unwrap().rows.len();
        assert_eq!(profile.rows_out, exec_rows, "analyze ran the real query");
        assert!(profile.total_ns >= profile.ops_ns());
    }

    /// Prologue subqueries are measured once each, with result sizes.
    #[test]
    fn analyze_times_prologue_subqueries() {
        let d = db();
        let q = parse("SELECT x FROM a WHERE id IN (SELECT aid FROM b)").unwrap();
        let profile = describe_plan_analyze(&d, &q).unwrap();
        assert_eq!(profile.prologue.len(), 1);
        assert_eq!(profile.prologue[0].kind, "in-set");
        assert_eq!(profile.prologue[0].rows, 2);
        let rendered = profile.render(false);
        assert!(
            rendered.starts_with("PROLOGUE SUBQUERY 0 [in-set] -> 2 rows"),
            "{rendered}"
        );
    }

    /// Aggregates hidden in HAVING or ORDER BY force grouped execution;
    /// the compiled-plan description reports that truthfully.
    #[test]
    fn order_by_aggregate_described_as_aggregate() {
        let d = db();
        let q = parse("SELECT aid FROM b ORDER BY count(*)").unwrap();
        let plan = describe_plan(&d, &q);
        assert!(
            plan.steps
                .iter()
                .any(|s| matches!(s, PlanStep::Aggregate { .. })),
            "{}",
            plan.render()
        );
    }
}
