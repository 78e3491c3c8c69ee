//! The run loop for [`CompiledQuery`]: executes a compiled plan against a
//! database.
//!
//! Per run it (1) resolves each interned table name against the target
//! database once, (2) executes the subquery prologue — every hoisted
//! subquery exactly once, materialized as an [`InProbe`] or a constant —
//! and then (3) streams rows through slots-only expression evaluation.
//! Grouping, DISTINCT, set operations, and hash joins key on
//! [`KeyValue`]s; lineage travels as interned `(table-id, row)` pairs with
//! set-backed ordered dedup and is materialized to [`SourceRef`]s only
//! after LIMIT truncation.

use crate::error::ExecError;
use crate::exec::{ExecOutput, SourceRef};
use crate::ir::{
    row_key, CBody, CCore, CExpr, CProj, CompiledQuery, InProbe, JoinStrategy, RunStats, SrcId,
    SubKind, SubPlan, SubResult,
};
use crate::plan::PlanStep;
use crate::profile::{OpProfile, PlanProfile, Prof, SubProfile};
use crate::result::ResultSet;
use crate::scalar::{dedup_distinct, eval_binary, fold_agg, sort_by_order_keys};
use crate::schema::{ColumnDef, DataType, TableSchema};
use crate::table::{Database, Table};
use crate::value::{KeyValue, Value};
use cyclesql_obs::SpanCtx;
use cyclesql_sql::{AggFunc, SetOp};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

impl CompiledQuery {
    /// Runs the compiled plan, tracking per-row lineage.
    ///
    /// Execution is vectorized: rows stream through the columnar batch
    /// kernels of the private `batch` module, falling back to the row-at-a-time
    /// interpreter only if the columnar run hits an evaluation error (so
    /// error messages always come from the row engine and stay
    /// bit-identical to the reference interpreter).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if `db` lacks a table the plan references
    /// (running against a database with a different schema) or on run-time
    /// evaluation errors (e.g. a non-COUNT aggregate over `*`).
    pub fn run(&self, db: &Database) -> Result<ExecOutput, ExecError> {
        self.run_opts(db, &ExecOpts::default()).map(|(out, _)| out)
    }

    /// Runs the columnar engine under explicit execution options: batch
    /// size, intra-query worker threads, and a tracing context for the
    /// morsel pool. Results — rows, lineage, stats, and (via
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

    /// [`CompiledQuery::run_opts`] with per-operator instrumentation.
    /// Counters are summed across morsels in morsel-index order, so the
    /// profile is identical to a single-threaded run's (timings aside).
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

    /// Runs the columnar engine with an explicit batch size (rows per
    /// chunk, clamped to at least 1). Results are identical for every
    /// batch size; this exists so tests can sweep chunk boundaries and
    /// benchmarks can explore the batch-size axis.
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_batched(
        &self,
        db: &Database,
        rows_per_batch: usize,
    ) -> Result<ExecOutput, ExecError> {
        let opts = ExecOpts {
            batch_rows: rows_per_batch,
            ..ExecOpts::default()
        };
        self.run_opts(db, &opts).map(|(out, _)| out)
    }

    /// Runs the compiled plan through the row-at-a-time interpreter,
    /// bypassing the columnar kernels. Kept public as the differential
    /// anchor for tests and benchmarks.
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_rowwise(&self, db: &Database) -> Result<ExecOutput, ExecError> {
        let mut stats = RunStats::default();
        self.run_inner(db, &mut stats, &mut Prof::Off)
    }

    /// Runs the compiled plan, discarding lineage.
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_result(&self, db: &Database) -> Result<ResultSet, ExecError> {
        self.run(db).map(|o| o.result)
    }

    /// Runs the compiled plan and reports execution statistics (how many
    /// hoisted subqueries were executed, each exactly once).
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_with_stats(&self, db: &Database) -> Result<(ExecOutput, RunStats), ExecError> {
        self.run_opts(db, &ExecOpts::default())
    }

    /// Runs the compiled plan with per-operator instrumentation: rows
    /// in/out, probe and comparison counts, hash-index sizes, prologue
    /// subquery timings, and per-operator wall time — the data behind
    /// [`crate::plan::describe_plan_analyze`]. Exactly one execution; the
    /// result is the same one [`CompiledQuery::run`] would produce.
    /// Columnar batches accumulate each operator's counters across chunks,
    /// so the profile is independent of the batch size.
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_analyzed(&self, db: &Database) -> Result<(ExecOutput, PlanProfile), ExecError> {
        self.run_opts_analyzed(db, &ExecOpts::default())
    }

    /// [`CompiledQuery::run_analyzed`] pinned to the row engine, for
    /// counter-parity tests and the benchmark's row axis.
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_rowwise_analyzed(
        &self,
        db: &Database,
    ) -> Result<(ExecOutput, PlanProfile), ExecError> {
        let mut stats = RunStats::default();
        let mut prof = Prof::On(Box::default());
        let t = Instant::now();
        let out = self.run_inner(db, &mut stats, &mut prof)?;
        let total_ns = t.elapsed().as_nanos() as u64;
        let Prof::On(mut profile) = prof else {
            unreachable!("profiling stays on for the whole run")
        };
        profile.total_ns = total_ns;
        profile.rows_out = out.result.rows.len();
        Ok((out, *profile))
    }

    /// [`CompiledQuery::run_analyzed`] with an explicit batch size; the
    /// chunk-sweep counter tests drive this.
    ///
    /// # Errors
    ///
    /// See [`CompiledQuery::run`].
    pub fn run_batched_analyzed(
        &self,
        db: &Database,
        rows_per_batch: usize,
    ) -> Result<(ExecOutput, PlanProfile), ExecError> {
        let opts = ExecOpts {
            batch_rows: rows_per_batch,
            ..ExecOpts::default()
        };
        self.run_opts_analyzed(db, &opts)
    }

    pub(crate) fn run_inner(
        &self,
        db: &Database,
        stats: &mut RunStats,
        prof: &mut Prof,
    ) -> Result<ExecOutput, ExecError> {
        self.run_extra(db, stats, prof, &[])
    }

    /// [`CompiledQuery::run_inner`] with enclosing-scope CTE
    /// materializations visible to name resolution — the entry point for
    /// CTE bodies and hoisted subqueries that scan an outer `WITH` table.
    /// This plan's own CTEs materialize first (before the subquery
    /// prologue, matching the reference interpreter's bodies-before-main
    /// evaluation order), then the main body runs with the combined scope.
    pub(crate) fn run_extra(
        &self,
        db: &Database,
        stats: &mut RunStats,
        prof: &mut Prof,
        extra: &[&CteMat],
    ) -> Result<ExecOutput, ExecError> {
        let mats = materialize_ctes(self, db, stats, prof, extra, None)?;
        let avail: Vec<&CteMat> = extra.iter().copied().chain(mats.iter()).collect();
        let ctx = RunCtx::prepare(self, db, stats, prof, None, &avail)?;
        let (columns, rows) = exec_cbody(&ctx, &self.body, prof)?;
        finish_run(self, &columns, rows, prof, &avail)
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

/// Materializes a plan's `WITH` definitions in declaration order, each
/// body seeing the enclosing scope (`extra`) plus every earlier sibling —
/// exactly the visibility the compiler resolved against. Each body runs
/// once per run (counted in [`RunStats::cte_runs`]) on the engine
/// `prologue_batch` selects, like the subquery prologue.
pub(crate) fn materialize_ctes(
    plan: &CompiledQuery,
    db: &Database,
    stats: &mut RunStats,
    prof: &mut Prof,
    extra: &[&CteMat],
    prologue_batch: Option<usize>,
) -> Result<Vec<CteMat>, ExecError> {
    let mut mats: Vec<CteMat> = Vec::with_capacity(plan.ctes.len());
    for cte in &plan.ctes {
        let avail: Vec<&CteMat> = extra.iter().copied().chain(mats.iter()).collect();
        stats.cte_runs += 1;
        let t = prof.start();
        let out = match prologue_batch {
            Some(batch_rows) => {
                let opts = ExecOpts {
                    batch_rows,
                    ..ExecOpts::default()
                };
                crate::batch::run_columnar(&cte.plan, db, stats, &mut Prof::Off, &opts, &avail)?
            }
            None => cte.plan.run_extra(db, stats, &mut Prof::Off, &avail)?,
        };
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

/// The shared tail of both engines: ORDER BY, LIMIT, and lineage
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

/// Per-run state: resolved tables and prologue results. Shared between
/// the row interpreter here and the columnar kernels in [`crate::batch`],
/// so both engines resolve tables and run the subquery prologue
/// identically.
pub(crate) struct RunCtx<'a> {
    pub(crate) tables: Vec<&'a Table>,
    pub(crate) subs: Vec<SubResult>,
}

impl<'a> RunCtx<'a> {
    /// `prologue_batch` selects the engine for the subquery prologue:
    /// `Some(batch_rows)` runs each hoisted subquery through the columnar
    /// batch kernels (the columnar outer run passes its own batch size so
    /// chunk-boundary sweeps cover the prologue too), `None` keeps it on
    /// the row interpreter (the row engine stays a pure row-wise anchor).
    pub(crate) fn prepare(
        plan: &CompiledQuery,
        db: &'a Database,
        stats: &mut RunStats,
        prof: &mut Prof,
        prologue_batch: Option<usize>,
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
            subs.push(run_prologue_step(
                sub,
                db,
                stats,
                prof,
                prologue_batch,
                extra,
            )?);
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
    prologue_batch: Option<usize>,
    extra: &[&CteMat],
) -> Result<SubResult, ExecError> {
    stats.subquery_runs += 1;
    let t = prof.start();
    let result = match prologue_batch {
        // Vectorized prologue: the subplan streams through the same batch
        // kernels as the outer query (single-threaded — prologue plans run
        // once and are rarely scan-bound). `run_columnar` accumulates onto
        // the caller's stats and falls back to the row interpreter on any
        // evaluation error, so results, `subquery_runs`, and error messages
        // are identical to a row-wise prologue. Enclosing CTEs stay in
        // scope: the reference interpreter runs subqueries against the
        // shadow database that already holds them.
        Some(batch_rows) => {
            let opts = ExecOpts {
                batch_rows,
                ..ExecOpts::default()
            };
            crate::batch::run_columnar(&sub.plan, db, stats, &mut Prof::Off, &opts, extra)?.result
        }
        None => sub.plan.run_extra(db, stats, &mut Prof::Off, extra)?.result,
    };
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

/// One joined row mid-pipeline: values plus interned lineage.
#[derive(Debug, Clone)]
struct CWorkRow {
    values: Vec<Value>,
    lineage: Vec<SrcId>,
}

/// One output row mid-pipeline — also produced by the columnar kernels,
/// which late-materialize values into this shape just before the shared
/// sort/limit tail.
#[derive(Debug, Clone)]
pub(crate) struct COutRow {
    pub(crate) values: Vec<Value>,
    pub(crate) lineage: Vec<SrcId>,
    pub(crate) order_keys: Vec<Value>,
}

/// Positional value access shared by full work rows and join candidates,
/// so predicate evaluation never needs a materialized candidate row.
trait SlotVals {
    fn slot(&self, i: usize) -> &Value;
}

impl SlotVals for CWorkRow {
    #[inline]
    fn slot(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

/// A nested-loop join candidate: the left row and a borrowed right row.
/// ON predicates evaluate against this view; only candidates that pass
/// are assembled into owned [`CWorkRow`]s.
struct JoinCand<'a> {
    left: &'a CWorkRow,
    right: &'a [Value],
}

impl SlotVals for JoinCand<'_> {
    #[inline]
    fn slot(&self, i: usize) -> &Value {
        let split = self.left.values.len();
        if i < split {
            &self.left.values[i]
        } else {
            &self.right[i - split]
        }
    }
}

fn exec_cbody(
    ctx: &RunCtx<'_>,
    body: &CBody,
    prof: &mut Prof,
) -> Result<(Arc<[String]>, Vec<COutRow>), ExecError> {
    match body {
        CBody::Select(core) => exec_ccore(ctx, core, prof),
        CBody::SetOp { op, left, right } => {
            let (columns, l) = exec_cbody(ctx, left, prof)?;
            // Reserve the set-op marker between the branches (matching
            // describe order); its measurements exist only after the merge.
            let marker = prof.enabled().then(|| {
                prof.push_op(OpProfile {
                    step: PlanStep::SetOp {
                        op: op.keyword().to_string(),
                    },
                    rows_in: 0,
                    rows_out: 0,
                    comparisons: 0,
                    hash_entries: 0,
                    elapsed_ns: 0,
                })
            });
            let (_, r) = exec_cbody(ctx, right, prof)?;
            let t = prof.start();
            let rows_in = l.len() + r.len();
            let merged = apply_set_op(*op, l, r);
            if let (Some(marker), Some(t)) = (marker, t) {
                prof.patch_op(
                    marker,
                    OpProfile {
                        step: PlanStep::SetOp {
                            op: op.keyword().to_string(),
                        },
                        rows_in,
                        rows_out: merged.len(),
                        comparisons: 0,
                        hash_entries: 0,
                        elapsed_ns: t.elapsed().as_nanos() as u64,
                    },
                );
            }
            Ok((columns, merged))
        }
    }
}

/// Set-operation dedup on [`KeyValue`] row keys, computed once per row.
/// Shared with the columnar engine, which merges branch outputs here too.
pub(crate) fn apply_set_op(op: SetOp, l: Vec<COutRow>, r: Vec<COutRow>) -> Vec<COutRow> {
    let key = |row: &COutRow| row_key(&row.values);
    let mut out = Vec::new();
    let mut seen: HashSet<Vec<KeyValue>> = HashSet::new();
    match op {
        SetOp::Union => {
            for row in l.into_iter().chain(r) {
                let k = key(&row);
                if seen.insert(k) {
                    out.push(row);
                }
            }
        }
        SetOp::Intersect => {
            // First matching right row per key, for the lineage merge.
            let mut right_first: HashMap<Vec<KeyValue>, usize> = HashMap::new();
            for (i, row) in r.iter().enumerate() {
                right_first.entry(key(row)).or_insert(i);
            }
            for mut row in l.into_iter() {
                let k = key(&row);
                if let Some(&first) = right_first.get(&k) {
                    if seen.insert(k) {
                        // Merge lineage from one matching right row so the
                        // provenance spans both branches; ordered dedup via
                        // a set rather than O(n²) scans.
                        let mut present: HashSet<SrcId> = row.lineage.iter().copied().collect();
                        for &src in &r[first].lineage {
                            if present.insert(src) {
                                row.lineage.push(src);
                            }
                        }
                        out.push(row);
                    }
                }
            }
        }
        SetOp::Except => {
            let right_keys: HashSet<Vec<KeyValue>> = r.iter().map(key).collect();
            for row in l.into_iter() {
                let k = key(&row);
                if !right_keys.contains(&k) && seen.insert(k) {
                    out.push(row);
                }
            }
        }
    }
    out
}

fn exec_ccore(
    ctx: &RunCtx<'_>,
    core: &CCore,
    prof: &mut Prof,
) -> Result<(Arc<[String]>, Vec<COutRow>), ExecError> {
    let mut work = build_working_set(ctx, core, prof)?;

    if let Some(pred) = &core.filter {
        let t = prof.start();
        let rows_in = work.len();
        let mut kept = Vec::with_capacity(work.len());
        for row in work.into_iter() {
            if ceval(pred, ctx, &row)?.is_truthy() {
                kept.push(row);
            }
        }
        work = kept;
        if let Some(t) = t {
            prof.push_op(OpProfile {
                step: PlanStep::Filter {
                    predicate: core.filter_display.clone().unwrap_or_default(),
                },
                rows_in,
                rows_out: work.len(),
                comparisons: rows_in,
                hash_entries: 0,
                elapsed_ns: t.elapsed().as_nanos() as u64,
            });
        }
    }

    let agg_t = prof.start();
    let agg_rows_in = work.len();
    let mut out_rows: Vec<COutRow> = Vec::new();
    if core.grouped {
        let groups = group_rows(&core.group_by, ctx, work)?;
        for group in groups {
            if let Some(h) = &core.having {
                if !ceval_in_group(h, ctx, &group)?.is_truthy() {
                    continue;
                }
            }
            let mut values = Vec::new();
            for item in &core.projections {
                project_item(item, ctx, ProjCtx::Group(&group), &mut values)?;
            }
            let mut order_keys = Vec::with_capacity(core.order_exprs.len());
            for o in &core.order_exprs {
                order_keys.push(ceval_in_group(o, ctx, &group)?);
            }
            // Ordered union of the group's lineage, set-backed.
            let mut lineage: Vec<SrcId> = Vec::new();
            let mut present: HashSet<SrcId> = HashSet::new();
            for r in &group {
                for &src in &r.lineage {
                    if present.insert(src) {
                        lineage.push(src);
                    }
                }
            }
            out_rows.push(COutRow {
                values,
                lineage,
                order_keys,
            });
        }
    } else {
        for row in work {
            let mut values = Vec::new();
            for item in &core.projections {
                project_item(item, ctx, ProjCtx::Row(&row), &mut values)?;
            }
            let mut order_keys = Vec::with_capacity(core.order_exprs.len());
            for o in &core.order_exprs {
                order_keys.push(ceval(o, ctx, &row)?);
            }
            out_rows.push(COutRow {
                values,
                lineage: row.lineage,
                order_keys,
            });
        }
    }

    if core.grouped {
        if let Some(t) = agg_t {
            prof.push_op(OpProfile {
                step: PlanStep::Aggregate {
                    group_keys: core.group_by.len(),
                    having: core.having.is_some(),
                },
                rows_in: agg_rows_in,
                rows_out: out_rows.len(),
                comparisons: 0,
                hash_entries: 0,
                elapsed_ns: t.elapsed().as_nanos() as u64,
            });
        }
    }

    if core.distinct {
        let t = prof.start();
        let rows_in = out_rows.len();
        let mut seen: HashSet<Vec<KeyValue>> = HashSet::new();
        out_rows.retain(|r| seen.insert(row_key(&r.values)));
        if let Some(t) = t {
            prof.push_op(OpProfile {
                step: PlanStep::Distinct,
                rows_in,
                rows_out: out_rows.len(),
                comparisons: 0,
                hash_entries: 0,
                elapsed_ns: t.elapsed().as_nanos() as u64,
            });
        }
    }

    Ok((Arc::clone(&core.columns), out_rows))
}

fn build_working_set(
    ctx: &RunCtx<'_>,
    core: &CCore,
    prof: &mut Prof,
) -> Result<Vec<CWorkRow>, ExecError> {
    let base = ctx.tables[core.base as usize];
    let t = prof.start();
    let mut work: Vec<CWorkRow> = base
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| CWorkRow {
            values: r.clone(),
            lineage: vec![(core.base, i)],
        })
        .collect();
    if let Some(t) = t {
        prof.push_op(OpProfile {
            step: PlanStep::Scan {
                table: base.schema.name.clone(),
                rows: base.len(),
            },
            rows_in: base.len(),
            rows_out: work.len(),
            comparisons: 0,
            hash_entries: 0,
            elapsed_ns: t.elapsed().as_nanos() as u64,
        });
    }

    // Running width of the joined prefix, for RIGHT/FULL pad rows (the
    // working set may be empty, so the width cannot be read off a row).
    let mut left_width = base.schema.columns.len();
    for join in &core.joins {
        let right = ctx.tables[join.table as usize];
        let t = prof.start();
        let rows_in = work.len();
        let mut hash_entries = 0usize;
        let mut comparisons = 0usize;
        let mut joined = Vec::new();
        let (pad_l, pad_r) = join.join_type.pads();
        // Which right rows matched at least one left row; only tracked
        // when this flavor pads the right side.
        let mut matched_right = vec![false; if pad_r { right.rows.len() } else { 0 }];
        match &join.strategy {
            JoinStrategy::Hash {
                left_slot,
                right_col,
            } => {
                // NULL keys never match (3VL), mirroring nested-loop
                // sql_eq — a NULL-key right row is never indexed, so under
                // RIGHT/FULL it pads by construction.
                let mut index: HashMap<KeyValue, Vec<usize>> = HashMap::new();
                for (ri, right_row) in right.rows.iter().enumerate() {
                    let k = &right_row[*right_col];
                    if !k.is_null() {
                        index.entry(k.key()).or_default().push(ri);
                        hash_entries += 1;
                    }
                }
                comparisons = work.len();
                for left_row in &work {
                    let k = &left_row.values[*left_slot];
                    let matches: &[usize] = if k.is_null() {
                        &[]
                    } else {
                        index.get(&k.key()).map(|v| v.as_slice()).unwrap_or(&[])
                    };
                    for &ri in matches {
                        if pad_r {
                            matched_right[ri] = true;
                        }
                        joined.push(join_rows(left_row, &right.rows[ri], join.table, ri));
                    }
                    if matches.is_empty() && pad_l {
                        joined.push(pad_left(left_row, join.right_width));
                    }
                }
            }
            JoinStrategy::Loop { on } => {
                for left_row in &work {
                    let mut matched = false;
                    for (ri, right_row) in right.rows.iter().enumerate() {
                        // Evaluate ON against a borrowed candidate view;
                        // only matches are assembled into owned rows.
                        let keep = match on {
                            Some(on) => {
                                comparisons += 1;
                                let cand = JoinCand {
                                    left: left_row,
                                    right: right_row,
                                };
                                ceval(on, ctx, &cand)?.is_truthy()
                            }
                            None => true,
                        };
                        if keep {
                            matched = true;
                            if pad_r {
                                matched_right[ri] = true;
                            }
                            joined.push(join_rows(left_row, right_row, join.table, ri));
                        }
                    }
                    if !matched && pad_l {
                        joined.push(pad_left(left_row, join.right_width));
                    }
                }
            }
        }
        // Unmatched right rows append after every left-driven output, in
        // right-row order — the canonical order all three engines share.
        if pad_r {
            for (ri, right_row) in right.rows.iter().enumerate() {
                if !matched_right[ri] {
                    joined.push(pad_right(left_width, right_row, join.table, ri));
                }
            }
        }
        work = joined;
        left_width += join.right_width;
        if let Some(t) = t {
            let table = right.schema.name.clone();
            let rows = right.len();
            let step = match &join.strategy {
                JoinStrategy::Hash { .. } => PlanStep::HashJoin {
                    table,
                    rows,
                    on: join.on_display.clone().unwrap_or_default(),
                },
                JoinStrategy::Loop { .. } => PlanStep::NestedLoopJoin {
                    table,
                    rows,
                    on: join.on_display.clone(),
                },
            };
            prof.push_op(OpProfile {
                step,
                rows_in,
                rows_out: work.len(),
                comparisons,
                hash_entries,
                elapsed_ns: t.elapsed().as_nanos() as u64,
            });
        }
    }
    Ok(work)
}

/// Assembles a kept join output row with exact-capacity allocations.
fn join_rows(left: &CWorkRow, right_row: &[Value], table: u32, ri: usize) -> CWorkRow {
    let mut values = Vec::with_capacity(left.values.len() + right_row.len());
    values.extend_from_slice(&left.values);
    values.extend_from_slice(right_row);
    let mut lineage = Vec::with_capacity(left.lineage.len() + 1);
    lineage.extend_from_slice(&left.lineage);
    lineage.push((table, ri));
    CWorkRow { values, lineage }
}

/// A LEFT/FULL pad row for an unmatched left row: NULLs for the right
/// side, no right lineage entry.
fn pad_left(left: &CWorkRow, right_width: usize) -> CWorkRow {
    let mut values = Vec::with_capacity(left.values.len() + right_width);
    values.extend_from_slice(&left.values);
    values.extend(std::iter::repeat_n(Value::Null, right_width));
    CWorkRow {
        values,
        lineage: left.lineage.clone(),
    }
}

/// A RIGHT/FULL pad row for an unmatched right row: NULLs for the whole
/// joined prefix, lineage anchored on the right row alone.
fn pad_right(left_width: usize, right_row: &[Value], table: u32, ri: usize) -> CWorkRow {
    let mut values = Vec::with_capacity(left_width + right_row.len());
    values.extend(std::iter::repeat_n(Value::Null, left_width));
    values.extend_from_slice(right_row);
    CWorkRow {
        values,
        lineage: vec![(table, ri)],
    }
}

enum ProjCtx<'a> {
    Row(&'a CWorkRow),
    Group(&'a [CWorkRow]),
}

fn project_item(
    item: &CProj,
    ctx: &RunCtx<'_>,
    pctx: ProjCtx<'_>,
    out: &mut Vec<Value>,
) -> Result<(), ExecError> {
    match item {
        CProj::Slots(idxs) => {
            let rep: Option<&CWorkRow> = match &pctx {
                ProjCtx::Row(r) => Some(r),
                ProjCtx::Group(g) => g.first(),
            };
            match rep {
                Some(r) => out.extend(idxs.iter().map(|&i| r.values[i].clone())),
                // Empty group (aggregate over no rows): NULL-pad, matching
                // the reference interpreter.
                None => out.extend(std::iter::repeat_n(Value::Null, idxs.len())),
            }
        }
        CProj::Expr(e) => {
            let v = match pctx {
                ProjCtx::Row(r) => ceval(e, ctx, r)?,
                ProjCtx::Group(g) => ceval_in_group(e, ctx, g)?,
            };
            out.push(v);
        }
    }
    Ok(())
}

/// Order-preserving grouping on [`KeyValue`] keys; rows are moved into
/// their groups, not cloned.
fn group_rows(
    group_by: &[CExpr],
    ctx: &RunCtx<'_>,
    work: Vec<CWorkRow>,
) -> Result<Vec<Vec<CWorkRow>>, ExecError> {
    if group_by.is_empty() {
        // Single group over the full input — even if empty (so `count(*)`
        // over an empty table yields 0).
        return Ok(vec![work]);
    }
    let mut index: HashMap<Vec<KeyValue>, usize> = HashMap::new();
    let mut groups: Vec<Vec<CWorkRow>> = Vec::new();
    for row in work {
        let mut key = Vec::with_capacity(group_by.len());
        for g in group_by {
            key.push(ceval(g, ctx, &row)?.key());
        }
        let slot = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[slot].push(row);
    }
    Ok(groups)
}

// ---------------------------------------------------------------------------
// Expression evaluation — slots and prologue lookups only, no name
// resolution and no subquery execution.
// ---------------------------------------------------------------------------

fn ceval<S: SlotVals>(e: &CExpr, ctx: &RunCtx<'_>, row: &S) -> Result<Value, ExecError> {
    match e {
        CExpr::Slot(i) => Ok(row.slot(*i).clone()),
        CExpr::Const(v) => Ok(v.clone()),
        CExpr::Binary { op, left, right } => {
            eval_binary(*op, &ceval(left, ctx, row)?, &ceval(right, ctx, row)?)
        }
        CExpr::Not(inner) => {
            let v = ceval(inner, ctx, row)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.is_truthy()))
            }
        }
        CExpr::Agg { .. } => Err(ExecError::new(
            "aggregate used outside of an aggregate context",
        )),
        CExpr::InProbeRef { expr, sub, negated } => {
            let needle = ceval(expr, ctx, row)?;
            let found = match &ctx.subs[*sub] {
                SubResult::Probe(p) => p.contains(&needle),
                SubResult::Const(_) => {
                    return Err(ExecError::new("internal: IN site bound to a constant"))
                }
            };
            Ok(Value::Bool(found != *negated))
        }
        CExpr::SubConst { sub } => match &ctx.subs[*sub] {
            SubResult::Const(v) => Ok(v.clone()),
            SubResult::Probe(_) => Err(ExecError::new("internal: constant site bound to a probe")),
        },
        CExpr::InConstList {
            expr,
            probe,
            negated,
        } => {
            let needle = ceval(expr, ctx, row)?;
            Ok(Value::Bool(probe.contains(&needle) != *negated))
        }
        CExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = ceval(expr, ctx, row)?;
            let mut found = false;
            for item in list {
                let v = ceval(item, ctx, row)?;
                if needle.sql_eq(&v) == Some(true) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        CExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = ceval(expr, ctx, row)?;
            let lo = ceval(low, ctx, row)?;
            let hi = ceval(high, ctx, row)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        CExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = ceval(expr, ctx, row)?;
            match v.sql_like(pattern) {
                Some(m) => Ok(Value::Bool(m != *negated)),
                None => Ok(Value::Null),
            }
        }
        CExpr::IsNull { expr, negated } => {
            let v = ceval(expr, ctx, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        CExpr::Case {
            operand,
            branches,
            else_,
        } => {
            // Lazy: operand once, WHENs until the first hit, one THEN.
            let opv = operand.as_ref().map(|o| ceval(o, ctx, row)).transpose()?;
            for (when, then) in branches {
                let w = ceval(when, ctx, row)?;
                let hit = match &opv {
                    Some(op) => op.sql_eq(&w) == Some(true),
                    None => w.is_truthy(),
                };
                if hit {
                    return ceval(then, ctx, row);
                }
            }
            match else_ {
                Some(e) => ceval(e, ctx, row),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Grouped evaluation: aggregates fold over the group; bare slots take the
/// first row's value (SQLite-style).
fn ceval_in_group(e: &CExpr, ctx: &RunCtx<'_>, group: &[CWorkRow]) -> Result<Value, ExecError> {
    match e {
        CExpr::Agg {
            func,
            distinct,
            arg,
        } => match arg {
            None => {
                if *func != AggFunc::Count {
                    return Err(ExecError::new(format!("{}(*) is not valid", func.name())));
                }
                Ok(Value::Int(group.len() as i64))
            }
            Some(inner) => {
                let mut values: Vec<Value> = Vec::new();
                for row in group {
                    let v = ceval(inner, ctx, row)?;
                    if !v.is_null() {
                        values.push(v);
                    }
                }
                if *distinct {
                    dedup_distinct(&mut values);
                }
                Ok(fold_agg(*func, &values))
            }
        },
        CExpr::Binary { op, left, right } => eval_binary(
            *op,
            &ceval_in_group(left, ctx, group)?,
            &ceval_in_group(right, ctx, group)?,
        ),
        CExpr::Not(inner) => {
            let v = ceval_in_group(inner, ctx, group)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.is_truthy()))
            }
        }
        // CASE over aggregates: every piece evaluates in group context
        // (so e.g. `CASE WHEN count(*) > 2 THEN …` folds per group).
        CExpr::Case {
            operand,
            branches,
            else_,
        } => {
            let opv = operand
                .as_ref()
                .map(|o| ceval_in_group(o, ctx, group))
                .transpose()?;
            for (when, then) in branches {
                let w = ceval_in_group(when, ctx, group)?;
                let hit = match &opv {
                    Some(op) => op.sql_eq(&w) == Some(true),
                    None => w.is_truthy(),
                };
                if hit {
                    return ceval_in_group(then, ctx, group);
                }
            }
            match else_ {
                Some(e) => ceval_in_group(e, ctx, group),
                None => Ok(Value::Null),
            }
        }
        _ => match group.first() {
            Some(first) => ceval(e, ctx, first),
            None => Ok(Value::Null),
        },
    }
}
