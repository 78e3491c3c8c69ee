//! The run loop for [`CompiledQuery`]: executes a compiled plan against a
//! database.
//!
//! Per run it (1) materializes the plan's `WITH` definitions, (2) resolves
//! each interned table name against the target database (or a CTE) once,
//! (3) executes the subquery prologue — every hoisted subquery exactly
//! once, materialized as an [`InProbe`] or a constant — and then (4)
//! streams the body through the columnar kernels of [`crate::batch`].
//! Every nested plan (CTE bodies, prologue subqueries) runs through the
//! same kernels. The shared tail applies ORDER BY and LIMIT, and
//! materializes interned lineage to [`SourceRef`]s only after LIMIT
//! truncation.

use crate::error::ExecError;
use crate::exec::{ExecOutput, SourceRef};
use crate::ir::{CompiledQuery, InProbe, RunStats, SrcId, SubKind, SubPlan, SubResult};
use crate::plan::PlanStep;
use crate::profile::{OpProfile, PlanProfile, Prof, SubProfile};
use crate::result::ResultSet;
use crate::scalar::sort_by_order_keys;
use crate::schema::{ColumnDef, DataType, TableSchema};
use crate::table::{Database, Table};
use crate::value::Value;
use cyclesql_obs::SpanCtx;
use std::sync::Arc;
use std::time::Instant;

impl CompiledQuery {
    /// Runs the compiled plan at the default [`ExecOpts`], tracking per-row
    /// lineage.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if `db` lacks a table the plan references
    /// (running against a database with a different schema), if a table
    /// has more rows than the engine's `u32` row ids can address, or on
    /// run-time evaluation errors (e.g. a non-COUNT aggregate over `*`).
    pub fn run(&self, db: &Database) -> Result<ExecOutput, ExecError> {
        self.run_opts(db, &ExecOpts::default()).map(|(out, _)| out)
    }

    /// Runs the plan under explicit execution options: batch size,
    /// intra-query worker threads, and a tracing context for the morsel
    /// pool. Results — rows, lineage, [`RunStats`] (how many hoisted
    /// subqueries and CTE bodies ran, each exactly once), and (via
    /// [`CompiledQuery::run_opts_analyzed`]) profile counters — are
    /// bit-identical at every thread count and batch size; only wall time
    /// changes.
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_opts(
        &self,
        db: &Database,
        opts: &ExecOpts<'_>,
    ) -> Result<(ExecOutput, RunStats), ExecError> {
        let mut stats = RunStats::default();
        let out = crate::batch::run_columnar(self, db, &mut stats, &mut Prof::Off, opts, &[])?;
        Ok((out, stats))
    }

    /// [`CompiledQuery::run_opts`] with per-operator instrumentation: rows
    /// in/out, probe and comparison counts, hash-index sizes, prologue
    /// subquery timings, and per-operator wall time — the data behind
    /// [`crate::plan::describe_plan_analyze`]. Exactly one execution; the
    /// result is the same one [`CompiledQuery::run_opts`] would produce.
    /// Counters are summed across morsels in morsel-index order, so the
    /// profile is identical at every batch size and thread count (timings
    /// aside).
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_opts_analyzed(
        &self,
        db: &Database,
        opts: &ExecOpts<'_>,
    ) -> Result<(ExecOutput, PlanProfile), ExecError> {
        let mut stats = RunStats::default();
        let mut prof = Prof::On(Box::default());
        let t = Instant::now();
        let out = crate::batch::run_columnar(self, db, &mut stats, &mut prof, opts, &[])?;
        let total_ns = t.elapsed().as_nanos() as u64;
        let Prof::On(mut profile) = prof else {
            unreachable!("profiling stays on for the whole run")
        };
        profile.total_ns = total_ns;
        profile.rows_out = out.result.rows.len();
        Ok((out, *profile))
    }
}

/// One materialized `WITH` definition: the result as a scannable
/// [`Table`] plus each result row's base-table lineage. Bodies that scan
/// the CTE record pseudo-references `(cte-id, row)`; [`finish_run`]
/// splices those into the stored base lineage at the output boundary.
pub(crate) struct CteMat {
    /// Declared CTE name (verbatim, as interned by the compiler).
    pub(crate) name: String,
    /// The materialized rows, scannable like any base table.
    pub(crate) table: Table,
    /// Per-row base-table lineage, parallel to `table.rows`.
    pub(crate) lineage: Vec<Vec<SourceRef>>,
}

/// Single-threaded options at `batch_rows`, for nested plans: CTE bodies
/// and prologue subqueries run once and are rarely scan-bound, and the
/// outer run passes its own batch size so chunk-boundary sweeps cover
/// them too.
fn nested_opts(batch_rows: usize) -> ExecOpts<'static> {
    ExecOpts {
        batch_rows,
        ..ExecOpts::default()
    }
}

/// Materializes a plan's `WITH` definitions in declaration order, each
/// body seeing the enclosing scope (`extra`) plus every earlier sibling —
/// exactly the visibility the compiler resolved against. Each body runs
/// once per run (counted in [`RunStats::cte_runs`]), before the subquery
/// prologue, matching the reference interpreter's bodies-before-main
/// evaluation order.
pub(crate) fn materialize_ctes(
    plan: &CompiledQuery,
    db: &Database,
    stats: &mut RunStats,
    prof: &mut Prof,
    extra: &[&CteMat],
    batch_rows: usize,
) -> Result<Vec<CteMat>, ExecError> {
    let mut mats: Vec<CteMat> = Vec::with_capacity(plan.ctes.len());
    for cte in &plan.ctes {
        let avail: Vec<&CteMat> = extra.iter().copied().chain(mats.iter()).collect();
        stats.cte_runs += 1;
        let t = prof.start();
        let out = crate::batch::run_columnar(
            &cte.plan,
            db,
            stats,
            &mut Prof::Off,
            &nested_opts(batch_rows),
            &avail,
        )?;
        if let Some(t) = t {
            prof.push_sub(SubProfile {
                index: 0, // assigned from push order
                kind: "cte",
                rows: out.result.rows.len(),
                elapsed_ns: t.elapsed().as_nanos() as u64,
            });
        }
        // Declared types are not tracked for CTE outputs (values carry
        // their own runtime types); Text is a display-only placeholder.
        let schema = TableSchema::new(
            &cte.name,
            cte.columns
                .iter()
                .map(|c| ColumnDef::new(c, DataType::Text))
                .collect(),
        );
        let mut table = Table::new(schema);
        for row in out.result.rows {
            table.push_row(row);
        }
        mats.push(CteMat {
            name: cte.name.clone(),
            table,
            lineage: out.lineage,
        });
    }
    Ok(mats)
}

/// Default rows-per-chunk for the columnar engine: large enough to
/// amortize per-batch dispatch, small enough to keep a chunk's id columns
/// and evaluated columns cache-resident.
pub(crate) const DEFAULT_BATCH_ROWS: usize = 1024;

/// Execution options for the columnar engine: batch size, intra-query
/// parallelism, and a tracing context for the morsel worker pool.
///
/// A morsel is one batch-sized range of base-table row ids; with
/// `threads > 1` morsels are claimed by a work-stealing pool and their
/// outputs merged in morsel-index order, so every observable output (rows,
/// lineage order, [`RunStats`], EXPLAIN ANALYZE counters, errors) is
/// bit-identical to a single-threaded run at the same batch size.
#[derive(Clone, Copy)]
pub struct ExecOpts<'a> {
    /// Rows per morsel/chunk (clamped to at least 1).
    pub batch_rows: usize,
    /// Maximum intra-query worker threads. `0` and `1` both mean
    /// single-threaded execution on the calling thread; the pool never
    /// spawns more workers than there are morsels.
    pub threads: usize,
    /// Tracing context: with parallelism active and tracing enabled, each
    /// pool worker emits one `morsels` child span (worker index, morsels
    /// claimed, rows produced). Disabled contexts cost nothing.
    pub span: SpanCtx<'a>,
}

impl Default for ExecOpts<'_> {
    fn default() -> Self {
        ExecOpts {
            batch_rows: DEFAULT_BATCH_ROWS,
            threads: 1,
            span: SpanCtx::none(),
        }
    }
}

/// The tail of every run: ORDER BY, LIMIT, and lineage
/// materialization, with their profile entries. Interned lineage ids are
/// resolved to shared table-name handles only for rows that survive
/// LIMIT. With CTEs in scope, pseudo-references into a materialized CTE
/// expand here into that CTE row's own base-table lineage
/// (order-preserving, first occurrence wins).
pub(crate) fn finish_run(
    plan: &CompiledQuery,
    columns: &Arc<[String]>,
    mut rows: Vec<COutRow>,
    prof: &mut Prof,
    ctes: &[&CteMat],
) -> Result<ExecOutput, ExecError> {
    if !plan.order_dirs.is_empty() {
        let t = prof.start();
        let n = rows.len();
        sort_by_order_keys(&mut rows, &plan.order_dirs, |r: &COutRow| &r.order_keys);
        if let Some(t) = t {
            prof.push_op(OpProfile {
                step: PlanStep::Sort {
                    keys: plan.order_dirs.len(),
                },
                rows_in: n,
                rows_out: n,
                comparisons: 0,
                hash_entries: 0,
                elapsed_ns: t.elapsed().as_nanos() as u64,
            });
        }
    }
    if let Some(n) = plan.limit {
        let before = rows.len();
        rows.truncate(n as usize);
        if prof.enabled() {
            prof.push_op(OpProfile {
                step: PlanStep::Limit { n },
                rows_in: before,
                rows_out: rows.len(),
                comparisons: 0,
                hash_entries: 0,
                elapsed_ns: 0,
            });
        }
    }
    let arcs: Vec<Arc<str>> = plan.tables.iter().map(|t| Arc::from(t.as_str())).collect();
    let mut result_rows = Vec::with_capacity(rows.len());
    let mut lineage = Vec::with_capacity(rows.len());
    if ctes.is_empty() {
        for r in rows {
            result_rows.push(r.values);
            lineage.push(
                r.lineage
                    .into_iter()
                    .map(|(t, row)| SourceRef {
                        table: Arc::clone(&arcs[t as usize]),
                        row,
                    })
                    .collect(),
            );
        }
    } else {
        // Which interned ids are CTEs (latest declaration shadows, like
        // name resolution in `RunCtx::prepare`).
        let mat_of: Vec<Option<&CteMat>> = plan
            .tables
            .iter()
            .map(|t| ctes.iter().rev().find(|m| m.name == *t).copied())
            .collect();
        for r in rows {
            result_rows.push(r.values);
            let mut out: Vec<SourceRef> = Vec::with_capacity(r.lineage.len());
            for (t, row) in r.lineage {
                match mat_of[t as usize] {
                    Some(mat) => {
                        for src in &mat.lineage[row] {
                            if !out.contains(src) {
                                out.push(src.clone());
                            }
                        }
                    }
                    None => {
                        let src = SourceRef {
                            table: Arc::clone(&arcs[t as usize]),
                            row,
                        };
                        if !out.contains(&src) {
                            out.push(src);
                        }
                    }
                }
            }
            lineage.push(out);
        }
    }
    Ok(ExecOutput {
        result: ResultSet {
            columns: columns.to_vec(),
            rows: result_rows,
        },
        lineage,
    })
}

/// Per-run state: resolved tables and prologue results, shared read-only
/// by the columnar kernels in [`crate::batch`] and their morsel workers.
pub(crate) struct RunCtx<'a> {
    pub(crate) tables: Vec<&'a Table>,
    pub(crate) subs: Vec<SubResult>,
}

impl<'a> RunCtx<'a> {
    /// Resolves the plan's tables and runs its subquery prologue, each
    /// hoisted subquery at `batch_rows` (see `nested_opts`).
    pub(crate) fn prepare(
        plan: &CompiledQuery,
        db: &'a Database,
        stats: &mut RunStats,
        prof: &mut Prof,
        batch_rows: usize,
        extra: &[&'a CteMat],
    ) -> Result<Self, ExecError> {
        let tables = plan
            .tables
            .iter()
            .map(|name| {
                // Materialized CTEs shadow schema tables; latest
                // declaration wins, matching compile-time scoping.
                extra
                    .iter()
                    .rev()
                    .find(|m| m.name == *name)
                    .map(|m| &m.table)
                    .or_else(|| db.table_exact(name))
                    .ok_or_else(|| ExecError::new(format!("unknown table {name}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut subs = Vec::with_capacity(plan.subs.len());
        for sub in &plan.subs {
            subs.push(run_prologue_step(sub, db, stats, prof, batch_rows, extra)?);
        }
        Ok(RunCtx { tables, subs })
    }
}

/// Executes one hoisted subquery — the only place subqueries run, once per
/// run regardless of outer cardinality. Profiled runs record each step's
/// result size and wall time as a [`SubProfile`]; the subquery's own
/// operators are not expanded into the outer profile.
fn run_prologue_step(
    sub: &SubPlan,
    db: &Database,
    stats: &mut RunStats,
    prof: &mut Prof,
    batch_rows: usize,
    extra: &[&CteMat],
) -> Result<SubResult, ExecError> {
    stats.subquery_runs += 1;
    let t = prof.start();
    // `run_columnar` accumulates onto the caller's stats, so nested
    // subqueries count too. Enclosing CTEs stay in scope: the reference
    // interpreter runs subqueries against the shadow database that
    // already holds them.
    let result = crate::batch::run_columnar(
        &sub.plan,
        db,
        stats,
        &mut Prof::Off,
        &nested_opts(batch_rows),
        extra,
    )?
    .result;
    if let Some(t) = t {
        prof.push_sub(SubProfile {
            index: 0, // assigned from push order
            kind: match &sub.kind {
                SubKind::InSet => "in-set",
                SubKind::Exists { .. } => "exists",
                SubKind::Scalar => "scalar",
            },
            rows: result.rows.len(),
            elapsed_ns: t.elapsed().as_nanos() as u64,
        });
    }
    Ok(match &sub.kind {
        SubKind::InSet => {
            let mut probe = InProbe::default();
            for row in &result.rows {
                if let Some(v) = row.first() {
                    probe.insert(v);
                }
            }
            SubResult::Probe(probe)
        }
        SubKind::Exists { negated } => SubResult::Const(Value::Bool(result.is_empty() == *negated)),
        SubKind::Scalar => SubResult::Const(
            result
                .rows
                .first()
                .and_then(|r| r.first().cloned())
                .unwrap_or(Value::Null),
        ),
    })
}

/// One output row mid-pipeline: the columnar kernels late-materialize
/// values into this shape just before the sort/limit tail.
#[derive(Debug, Clone)]
pub(crate) struct COutRow {
    pub(crate) values: Vec<Value>,
    pub(crate) lineage: Vec<SrcId>,
    pub(crate) order_keys: Vec<Value>,
}
