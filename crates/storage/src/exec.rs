//! Query execution entry points with lineage tracking.
//!
//! Executes the Spider SQL subset over an in-memory [`Database`]. Every
//! output row carries a *lineage*: the set of `(table, row-index)` source
//! tuples that produced it — the raw material for why-provenance.
//!
//! These functions are thin wrappers over the compile-once pipeline:
//! [`crate::compile::compile`] lowers the query to a resolved plan (all
//! name resolution and subquery hoisting happens there), and
//! [`crate::ir::CompiledQuery::run`] executes it. Callers that run the
//! same query repeatedly (the TS metric, the provenance rewrite loop)
//! should compile once and call `run` per database instead. The original
//! tree-walking executor survives as [`crate::reference`], pinned to this
//! pipeline by differential tests.

use crate::compile::compile;
use crate::error::ExecError;
use crate::result::ResultSet;
use crate::table::Database;
use cyclesql_sql::Query;
use std::sync::Arc;

/// A reference to one source tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceRef {
    /// Source table name — a shared handle to the plan's interned name,
    /// so cloning a lineage entry never copies the string.
    pub table: Arc<str>,
    /// Row index within that table.
    pub row: usize,
}

/// The lineage of an output row: contributing source tuples, in join order.
pub type Lineage = Vec<SourceRef>;

/// Execution output: the result set plus per-row lineage.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The query result.
    pub result: ResultSet,
    /// `lineage[i]` lists the source tuples behind `result.rows[i]`.
    pub lineage: Vec<Lineage>,
}

/// Compiles and runs a query, discarding lineage.
///
/// # Errors
///
/// Returns [`ExecError`] for unknown tables/columns, arity mismatches in set
/// operations, or unsupported constructs (correlated subqueries).
pub fn execute(db: &Database, q: &Query) -> Result<ResultSet, ExecError> {
    compile(db, q)?.run(db).map(|o| o.result)
}

/// Compiles and runs a query, tracking per-row lineage.
///
/// # Errors
///
/// See [`execute`].
pub fn execute_with_lineage(db: &Database, q: &Query) -> Result<ExecOutput, ExecError> {
    compile(db, q)?.run(db)
}

/// Validity check: whether the query executes without error ("executable
/// SQL" in the paper's sense).
pub fn is_executable(db: &Database, q: &Query) -> bool {
    execute(db, q).is_ok()
}
