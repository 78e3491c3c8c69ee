//! Vectorized columnar execution for [`CompiledQuery`], with morsel-driven
//! intra-query parallelism.
//!
//! Instead of materializing joined `Vec<Value>` rows, this engine streams
//! fixed-size chunks of *row ids* through batch kernels. A batch is one id
//! column per joined side (base table plus each join); `u32::MAX` marks a
//! LEFT-join pad. Values are gathered lazily from each table's shared
//! [`ColumnarTable`](crate::table::ColumnarTable) shadow — scan, join, and
//! filter never copy values, and projections materialize output rows only
//! for rows that survive the filter (late materialization). Lineage rides
//! along for free: the side id columns *are* the lineage, so per-row
//! `SrcId` vectors are assembled only at projection time.
//!
//! Each chunk is a *morsel*: one contiguous range of base-table row ids
//! that flows through scan → join → filter → late materialization (or, for
//! grouped cores, into a per-morsel partial group table) independently of
//! every other chunk. With [`ExecOpts::threads`] > 1 a `std::thread::scope`
//! work-stealing pool claims morsel indices from a shared atomic counter —
//! the same pattern `EvalSession` uses across queries — and the driver
//! merges per-morsel outputs strictly in morsel-index order: output rows
//! concatenate, partial group tables merge first-seen-first, and operator
//! counters sum. Because morsel boundaries depend only on the batch size,
//! a parallel run visits exactly the evaluation sites a single-threaded
//! run visits, and rows, lineage, stats, and profiles are bit-identical at
//! every thread count. The first error in morsel-index order wins, so the
//! error path is deterministic too.
//!
//! Parity contract: this is the one production engine, and the reference
//! interpreter ([`crate::reference`]) is its oracle — the differential and
//! fuzz suites require identical rows, lineage, and error messages.
//! Profile counters accumulate per operator across morsels, so EXPLAIN
//! ANALYZE output is independent of both the batch size and the thread
//! count. Evaluation is lazy wherever SQL is: an IN list evaluates each
//! item only over still-unmatched rows, and CASE evaluates each WHEN only
//! over rows no earlier branch matched and each THEN only over the rows
//! its WHEN matched, so an expression that raises is reached on exactly
//! the rows the oracle reaches it on. Errors are returned as raised; there
//! is no second engine behind them.

use crate::error::ExecError;
use crate::exec::ExecOutput;
use crate::ir::{
    row_key, CBody, CCore, CExpr, CProj, CompiledQuery, JoinStrategy, RunStats, SrcId, SubResult,
};
use crate::plan::PlanStep;
use crate::profile::{OpProfile, Prof};
use crate::run::{finish_run, materialize_ctes, COutRow, CteMat, ExecOpts, RunCtx};
use crate::scalar::{dedup_distinct, eval_binary, fold_agg};
use crate::table::{ColumnarTable, Database};
use crate::value::{KeyValue, Value};
use cyclesql_obs::SpanCtx;
use cyclesql_sql::{AggFunc, SetOp};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Row-id sentinel for a join pad (unmatched LEFT/FULL left row or
/// RIGHT/FULL right row): slots read as NULL and the side contributes no
/// lineage entry.
const NONE_ROW: u32 = u32::MAX;

/// Runs `plan`: its CTEs, its subquery prologue, then the body.
///
/// Stats accumulate onto `*stats`, so nested runs (CTE bodies, prologue
/// subqueries) add to the counters the outer run already collected.
/// `extra` carries enclosing-scope CTE materializations (for nested CTE
/// bodies and hoisted subqueries); top-level callers pass `&[]`.
pub(crate) fn run_columnar(
    plan: &CompiledQuery,
    db: &Database,
    stats: &mut RunStats,
    prof: &mut Prof,
    opts: &ExecOpts<'_>,
    extra: &[&CteMat],
) -> Result<ExecOutput, ExecError> {
    let batch_rows = opts.batch_rows.max(1);
    let mats = materialize_ctes(plan, db, stats, prof, extra, batch_rows)?;
    let avail: Vec<&CteMat> = extra.iter().copied().chain(mats.iter()).collect();
    let ctx = RunCtx::prepare(plan, db, stats, prof, batch_rows, &avail)?;
    for table in &ctx.tables {
        check_row_ids(&table.schema.name, table.len())?;
    }
    let cols: Vec<Arc<ColumnarTable>> = ctx.tables.iter().map(|t| t.columnar()).collect();
    let bx = BCtx {
        run: &ctx,
        cols,
        null: Value::Null,
        threads: opts.threads.max(1),
        span: opts.span,
    };
    let (columns, rows) = exec_cbody(&bx, &plan.body, prof, batch_rows)?;
    finish_run(plan, &columns, rows, prof, &avail)
}

/// Row ids are `u32` with [`NONE_ROW`] reserved for pads, so a table of
/// `u32::MAX` rows or more cannot be addressed. The engine refuses it
/// with an error naming the table rather than running it some other way.
fn check_row_ids(table: &str, rows: usize) -> Result<(), ExecError> {
    if rows >= NONE_ROW as usize {
        return Err(ExecError::new(format!(
            "table {table} has {rows} rows; the engine addresses at most {} rows per table",
            NONE_ROW - 1
        )));
    }
    Ok(())
}

/// Columnar run state: the shared per-run context plus each resolved
/// table's column-major shadow. Shared immutably across morsel workers.
struct BCtx<'a> {
    run: &'a RunCtx<'a>,
    cols: Vec<Arc<ColumnarTable>>,
    /// The value LEFT-join pad slots resolve to.
    null: Value,
    /// Intra-query worker cap (1 = execute morsels on the calling thread).
    threads: usize,
    /// Tracing context for the morsel pool's per-worker child spans.
    span: SpanCtx<'a>,
}

/// One joined side of a core's output space.
struct SideMeta {
    /// Interned table id (index into `BCtx::cols` / `RunCtx::tables`).
    table: u32,
}

/// The static layout of one core's working space: its sides and the
/// slot → (side, column) map, derived once per core from the base table's
/// arity and each join's `right_width`.
struct Shape {
    sides: Vec<SideMeta>,
    slot_map: Vec<(usize, usize)>,
}

impl Shape {
    fn of(bx: &BCtx<'_>, core: &CCore) -> Shape {
        let mut sides = vec![SideMeta { table: core.base }];
        let mut slot_map = Vec::new();
        let base_width = bx.cols[core.base as usize].cols.len();
        slot_map.extend((0..base_width).map(|c| (0usize, c)));
        for join in &core.joins {
            let side = sides.len();
            sides.push(SideMeta { table: join.table });
            slot_map.extend((0..join.right_width).map(|c| (side, c)));
        }
        Shape { sides, slot_map }
    }
}

/// A chunk of working rows: one row-id column per side joined so far.
/// All columns have equal length; `NONE_ROW` ids are LEFT pads.
struct Batch {
    ids: Vec<Vec<u32>>,
}

impl Batch {
    fn len(&self) -> usize {
        self.ids.first().map_or(0, Vec::len)
    }
}

/// Gathers each existing side through the selection vector `sel` and
/// appends `new_ids` as the next side.
fn gather_extend(batch: &Batch, sel: &[u32], new_ids: Vec<u32>) -> Batch {
    let mut ids = Vec::with_capacity(batch.ids.len() + 1);
    for side in &batch.ids {
        ids.push(sel.iter().map(|&i| side[i as usize]).collect());
    }
    ids.push(new_ids);
    Batch { ids }
}

/// Gathers each side through the selection vector, keeping the side count.
fn gather(batch: &Batch, sel: &[u32]) -> Batch {
    Batch {
        ids: batch
            .ids
            .iter()
            .map(|side| sel.iter().map(|&i| side[i as usize]).collect())
            .collect(),
    }
}

/// Resolves one slot of one batch row to a borrowed value.
#[inline]
fn slot_val<'b>(
    bx: &'b BCtx<'_>,
    shape: &Shape,
    batch: &Batch,
    row: usize,
    slot: usize,
) -> &'b Value {
    let (side, col) = shape.slot_map[slot];
    let id = batch.ids[side][row];
    if id == NONE_ROW {
        &bx.null
    } else {
        &bx.cols[shape.sides[side].table as usize].cols[col][id as usize]
    }
}

/// The interned lineage of one batch row: its non-pad side ids, in side
/// (base, join₁, join₂, …) order — the same order the reference
/// interpreter pushes.
fn row_lineage(shape: &Shape, batch: &Batch, row: usize) -> Vec<SrcId> {
    let mut lin = Vec::with_capacity(batch.ids.len());
    for (side, meta) in batch.ids.iter().zip(&shape.sides) {
        let id = side[row];
        if id != NONE_ROW {
            lin.push((meta.table, id as usize));
        }
    }
    lin
}

/// Per-operator counters accumulated across morsels; pushed as a single
/// [`OpProfile`] after the merge so profiles report whole-input totals
/// regardless of batch size or thread count.
#[derive(Default, Clone, Copy)]
struct OpAcc {
    rows_in: usize,
    rows_out: usize,
    comparisons: usize,
    hash_entries: usize,
    ns: u64,
}

impl OpAcc {
    /// Sums another morsel's counters into this one. Counters are plain
    /// sums, so merge order cannot change them; only `ns` (not compared by
    /// parity tests) overlaps across workers.
    fn merge(&mut self, other: &OpAcc) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.comparisons += other.comparisons;
        self.hash_entries += other.hash_entries;
        self.ns += other.ns;
    }
}

fn lap(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

fn exec_cbody(
    bx: &BCtx<'_>,
    body: &CBody,
    prof: &mut Prof,
    batch_rows: usize,
) -> Result<(Arc<[String]>, Vec<COutRow>), ExecError> {
    match body {
        CBody::Select(core) => exec_ccore(bx, core, prof, batch_rows),
        CBody::SetOp { op, left, right } => {
            let (columns, l) = exec_cbody(bx, left, prof, batch_rows)?;
            // Reserve the set-op marker between the branches, mirroring
            // describe's operator order.
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
            let (_, r) = exec_cbody(bx, right, prof, batch_rows)?;
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
fn apply_set_op(op: SetOp, l: Vec<COutRow>, r: Vec<COutRow>) -> Vec<COutRow> {
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

/// One morsel's completed pipeline output plus its operator counters.
struct MorselOut {
    scan: OpAcc,
    joins: Vec<OpAcc>,
    filter: OpAcc,
    /// Wall time spent evaluating group keys and building the partial
    /// group table (folded into the Aggregate operator's elapsed time).
    agg_ns: u64,
    data: MorselData,
}

/// What a morsel produces: projected output rows for plain cores, or the
/// filtered id batch plus a partial group table for grouped cores.
enum MorselData {
    Rows(Vec<COutRow>),
    Grouped {
        batch: Batch,
        /// Morsel-local groups in first-seen order: group key → the
        /// morsel-local row indices belonging to it. Empty when the core
        /// has no GROUP BY expressions (single global group).
        partial: Vec<(Vec<KeyValue>, Vec<u32>)>,
    },
}

impl MorselData {
    /// Rows this morsel contributed (for the worker span).
    fn len(&self) -> usize {
        match self {
            MorselData::Rows(rows) => rows.len(),
            MorselData::Grouped { batch, .. } => batch.len(),
        }
    }
}

fn exec_ccore(
    bx: &BCtx<'_>,
    core: &CCore,
    prof: &mut Prof,
    batch_rows: usize,
) -> Result<(Arc<[String]>, Vec<COutRow>), ExecError> {
    let shape = Shape::of(bx, core);
    let base_len = bx.cols[core.base as usize].len;
    let timing = prof.enabled();

    let mut scan_acc = OpAcc::default();
    let mut join_accs = vec![OpAcc::default(); core.joins.len()];
    let mut filter_acc = OpAcc::default();
    let mut agg_ns = 0u64;

    // Hash-join build sides are indexed once per run, on the calling
    // thread, and shared read-only by every morsel worker; NULL keys never
    // enter the index (3VL), matching nested-loop `sql_eq`.
    let mut join_hash: Vec<Option<HashMap<KeyValue, Vec<u32>>>> = Vec::new();
    for (ji, join) in core.joins.iter().enumerate() {
        join_hash.push(match &join.strategy {
            JoinStrategy::Hash { right_col, .. } => {
                let t = timing.then(Instant::now);
                let right = &bx.cols[join.table as usize].cols[*right_col];
                let mut index: HashMap<KeyValue, Vec<u32>> = HashMap::new();
                for (ri, k) in right.iter().enumerate() {
                    if !k.is_null() {
                        index.entry(k.key()).or_default().push(ri as u32);
                        join_accs[ji].hash_entries += 1;
                    }
                }
                join_accs[ji].ns += lap(t);
                Some(index)
            }
            JoinStrategy::Loop { .. } => None,
        });
    }

    // Execute every morsel — sequentially or on the pool — then fold the
    // outputs strictly in morsel-index order, which makes the merged rows,
    // group order, and counters identical to a single-threaded pass.
    let morsels = run_morsels(bx, core, &shape, &join_hash, base_len, batch_rows, timing)?;

    let mut out_rows: Vec<COutRow> = Vec::new();
    // Grouped cores accumulate surviving row ids across morsels and merge
    // the per-morsel partial group tables (aggregates need whole groups).
    let mut acc = Batch {
        ids: shape.sides.iter().map(|_| Vec::new()).collect(),
    };
    let mut group_index: HashMap<Vec<KeyValue>, usize> = HashMap::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for morsel in morsels {
        scan_acc.merge(&morsel.scan);
        for (total, part) in join_accs.iter_mut().zip(&morsel.joins) {
            total.merge(part);
        }
        filter_acc.merge(&morsel.filter);
        agg_ns += morsel.agg_ns;
        match morsel.data {
            MorselData::Rows(rows) => out_rows.extend(rows),
            MorselData::Grouped { batch, partial } => {
                let offset = acc.len() as u32;
                for (acc_ids, side) in acc.ids.iter_mut().zip(batch.ids) {
                    acc_ids.extend(side);
                }
                // Partial tables are first-seen-ordered within their
                // morsel; merging them in morsel-index order reproduces
                // the global first-seen group order exactly.
                for (key, local_rows) in partial {
                    let slot = *group_index.entry(key).or_insert_with(|| {
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                    groups[slot].extend(local_rows.into_iter().map(|r| r + offset));
                }
            }
        }
    }

    if timing {
        let base = bx.run.tables[core.base as usize];
        prof.push_op(OpProfile {
            step: PlanStep::Scan {
                table: base.schema.name.clone(),
                rows: base.len(),
            },
            rows_in: base.len(),
            rows_out: scan_acc.rows_out,
            comparisons: 0,
            hash_entries: 0,
            elapsed_ns: scan_acc.ns,
        });
        for (join, acc) in core.joins.iter().zip(&join_accs) {
            let right = bx.run.tables[join.table as usize];
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
                rows_in: acc.rows_in,
                rows_out: acc.rows_out,
                comparisons: acc.comparisons,
                hash_entries: acc.hash_entries,
                elapsed_ns: acc.ns,
            });
        }
        if core.filter.is_some() {
            prof.push_op(OpProfile {
                step: PlanStep::Filter {
                    predicate: core.filter_display.clone().unwrap_or_default(),
                },
                rows_in: filter_acc.rows_in,
                rows_out: filter_acc.rows_out,
                comparisons: filter_acc.comparisons,
                hash_entries: 0,
                elapsed_ns: filter_acc.ns,
            });
        }
    }

    if core.grouped {
        let t = timing.then(Instant::now);
        let agg_rows_in = acc.len();
        if core.group_by.is_empty() {
            // Single group over the full input — even if empty (so
            // `count(*)` over an empty table yields 0).
            groups = vec![(0..acc.len() as u32).collect()];
        }
        for rows in &groups {
            if let Some(h) = &core.having {
                if !beval_group(h, bx, &shape, &acc, rows)?.is_truthy() {
                    continue;
                }
            }
            let mut values = Vec::new();
            for item in &core.projections {
                match item {
                    CProj::Slots(idxs) => match rows.first() {
                        Some(&r0) => values.extend(
                            idxs.iter()
                                .map(|&i| slot_val(bx, &shape, &acc, r0 as usize, i).clone()),
                        ),
                        // Empty group (aggregate over no rows): NULL-pad,
                        // matching the reference interpreter.
                        None => values.extend(std::iter::repeat_n(Value::Null, idxs.len())),
                    },
                    CProj::Expr(e) => values.push(beval_group(e, bx, &shape, &acc, rows)?),
                }
            }
            let mut order_keys = Vec::with_capacity(core.order_exprs.len());
            for o in &core.order_exprs {
                order_keys.push(beval_group(o, bx, &shape, &acc, rows)?);
            }
            // Ordered union of the group's lineage, set-backed.
            let mut lineage: Vec<SrcId> = Vec::new();
            let mut present: HashSet<SrcId> = HashSet::new();
            for &r in rows {
                for src in row_lineage(&shape, &acc, r as usize) {
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
        if timing {
            prof.push_op(OpProfile {
                step: PlanStep::Aggregate {
                    group_keys: core.group_by.len(),
                    having: core.having.is_some(),
                },
                rows_in: agg_rows_in,
                rows_out: out_rows.len(),
                comparisons: 0,
                hash_entries: 0,
                elapsed_ns: agg_ns + lap(t),
            });
        }
    }

    if core.distinct {
        let t = timing.then(Instant::now);
        let rows_in = out_rows.len();
        let mut seen: HashSet<Vec<KeyValue>> = HashSet::new();
        out_rows.retain(|r| seen.insert(row_key(&r.values)));
        if timing {
            prof.push_op(OpProfile {
                step: PlanStep::Distinct,
                rows_in,
                rows_out: out_rows.len(),
                comparisons: 0,
                hash_entries: 0,
                elapsed_ns: lap(t),
            });
        }
    }

    Ok((Arc::clone(&core.columns), out_rows))
}

/// Executes every morsel of one core and returns the outputs in
/// morsel-index order.
///
/// Sequential (`threads <= 1`, or a single morsel): morsels run on the
/// calling thread, in order, and the first error returns immediately.
///
/// Parallel: `std::thread::scope` workers claim morsel indices from a
/// shared atomic counter (work-stealing — fast workers take more morsels),
/// results land in index-addressed slots, and an error raises an abort
/// flag so idle workers stop claiming. Because the counter is claimed
/// monotonically and every claimed morsel is joined, all slots below the
/// first erroring index are complete — scanning the slots in order makes
/// the *first erroring morsel in morsel order* win, exactly as a
/// sequential pass would.
fn run_morsels(
    bx: &BCtx<'_>,
    core: &CCore,
    shape: &Shape,
    join_hash: &[Option<HashMap<KeyValue, Vec<u32>>>],
    base_len: usize,
    batch_rows: usize,
    timing: bool,
) -> Result<Vec<MorselOut>, ExecError> {
    // RIGHT/FULL pad appends are a whole-input decision (a right row is
    // unmatched only if *no* left row anywhere matched it), so cores with
    // a right-padding join run as one morsel spanning the entire base
    // table — even an empty one, whose pad rows still must appear. This
    // trivially keeps results invariant across thread and batch settings.
    let pads_right = core.joins.iter().any(|j| j.join_type.pads().1);
    let (count, batch_rows) = if pads_right {
        (1, base_len.max(1))
    } else {
        (base_len.div_ceil(batch_rows), batch_rows)
    };
    let bounds = move |m: usize| {
        let start = m * batch_rows;
        (start, (start + batch_rows).min(base_len))
    };
    let workers = bx.threads.min(count);
    if workers <= 1 {
        let mut out = Vec::with_capacity(count);
        for m in 0..count {
            let (start, end) = bounds(m);
            out.push(run_morsel(bx, core, shape, join_hash, start, end, timing)?);
        }
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let mut slots: Vec<Option<Result<MorselOut, ExecError>>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                let abort = &abort;
                scope.spawn(move || {
                    let mut wspan = bx.span.child("morsels");
                    let mut done: Vec<(usize, Result<MorselOut, ExecError>)> = Vec::new();
                    let mut rows = 0usize;
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let m = next.fetch_add(1, Ordering::Relaxed);
                        if m >= count {
                            break;
                        }
                        let (start, end) = bounds(m);
                        let result = run_morsel(bx, core, shape, join_hash, start, end, timing);
                        match &result {
                            Ok(morsel) => rows += morsel.data.len(),
                            Err(_) => abort.store(true, Ordering::Relaxed),
                        }
                        done.push((m, result));
                    }
                    if let Some(s) = wspan.as_mut() {
                        s.set("worker", w);
                        s.set("morsels", done.len());
                        s.set("rows", rows);
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (m, result) in handle.join().expect("morsel worker panicked") {
                slots[m] = Some(result);
            }
        }
    });

    let mut out = Vec::with_capacity(count);
    for slot in slots {
        match slot {
            Some(Ok(morsel)) => out.push(morsel),
            Some(Err(e)) => return Err(e),
            // Unclaimed after an abort. Claim order makes this unreachable
            // below the erroring index; stay defensive all the same.
            None => return Err(ExecError::new("internal: morsel pool aborted")),
        }
    }
    Ok(out)
}

/// Runs one morsel — a contiguous `[start, end)` range of base row ids —
/// through scan → joins → filter, then either late-materializes output
/// rows (plain cores) or builds the morsel's partial group table (grouped
/// cores). Self-contained: touches only shared read-only state, so any
/// number of morsels run concurrently.
fn run_morsel(
    bx: &BCtx<'_>,
    core: &CCore,
    shape: &Shape,
    join_hash: &[Option<HashMap<KeyValue, Vec<u32>>>],
    start: usize,
    end: usize,
    timing: bool,
) -> Result<MorselOut, ExecError> {
    let mut scan = OpAcc::default();
    let mut joins = vec![OpAcc::default(); core.joins.len()];
    let mut filter_acc = OpAcc::default();

    let t = timing.then(Instant::now);
    let mut batch = Batch {
        ids: vec![(start as u32..end as u32).collect()],
    };
    scan.rows_in += end - start;
    scan.rows_out += end - start;
    scan.ns += lap(t);

    for (ji, join) in core.joins.iter().enumerate() {
        let t = timing.then(Instant::now);
        let n = batch.len();
        joins[ji].rows_in += n;
        let (pad_l, pad_r) = join.join_type.pads();
        let right_len = bx.cols[join.table as usize].len;
        // Which right rows matched at least one left row; only tracked
        // when this flavor pads the right side (such cores run as a
        // single whole-input morsel, so the view here is global).
        let mut matched_right = vec![false; if pad_r { right_len } else { 0 }];
        match &join.strategy {
            JoinStrategy::Hash { left_slot, .. } => {
                let index = join_hash[ji].as_ref().expect("hash strategy has an index");
                joins[ji].comparisons += n;
                let mut sel: Vec<u32> = Vec::new();
                let mut new_ids: Vec<u32> = Vec::new();
                for r in 0..n {
                    let k = slot_val(bx, shape, &batch, r, *left_slot);
                    let matches: &[u32] = if k.is_null() {
                        &[]
                    } else {
                        index.get(&k.key()).map(|v| v.as_slice()).unwrap_or(&[])
                    };
                    for &ri in matches {
                        if pad_r {
                            matched_right[ri as usize] = true;
                        }
                        sel.push(r as u32);
                        new_ids.push(ri);
                    }
                    if matches.is_empty() && pad_l {
                        sel.push(r as u32);
                        new_ids.push(NONE_ROW);
                    }
                }
                batch = gather_extend(&batch, &sel, new_ids);
            }
            JoinStrategy::Loop { on } => {
                match on {
                    Some(on) => {
                        // Expand the full candidate cross-product for
                        // this morsel, evaluate ON as one column, then
                        // gather the survivors (with LEFT pads stitched
                        // back per left row, preserving row order).
                        let mut sel = Vec::with_capacity(n * right_len);
                        let mut new_ids = Vec::with_capacity(n * right_len);
                        for r in 0..n {
                            for ri in 0..right_len {
                                sel.push(r as u32);
                                new_ids.push(ri as u32);
                            }
                        }
                        let cand = gather_extend(&batch, &sel, new_ids);
                        joins[ji].comparisons += cand.len();
                        let keep = eval_col(on, bx, shape, &cand, None)?;
                        let mut ksel: Vec<u32> = Vec::new();
                        let mut kids: Vec<u32> = Vec::new();
                        for r in 0..n {
                            let mut matched = false;
                            let kept = (0..right_len)
                                .filter(|&ri| keep.get(r * right_len + ri).is_truthy());
                            for ri in kept {
                                matched = true;
                                if pad_r {
                                    matched_right[ri] = true;
                                }
                                ksel.push(r as u32);
                                kids.push(ri as u32);
                            }
                            if !matched && pad_l {
                                ksel.push(r as u32);
                                kids.push(NONE_ROW);
                            }
                        }
                        batch = gather_extend(&batch, &ksel, kids);
                    }
                    None => {
                        // Cross join: every pairing survives; an empty
                        // right side pads each left row under LEFT/FULL.
                        if right_len == 0 && pad_l {
                            let sel: Vec<u32> = (0..n as u32).collect();
                            batch = gather_extend(&batch, &sel, vec![NONE_ROW; n]);
                        } else {
                            let mut sel = Vec::with_capacity(n * right_len);
                            let mut new_ids = Vec::with_capacity(n * right_len);
                            for r in 0..n {
                                for ri in 0..right_len {
                                    sel.push(r as u32);
                                    new_ids.push(ri as u32);
                                }
                            }
                            if pad_r && n > 0 {
                                // Every pairing survived, so with any left
                                // row at all no right row is unmatched.
                                matched_right.fill(true);
                            }
                            batch = gather_extend(&batch, &sel, new_ids);
                        }
                    }
                }
            }
        }
        // Unmatched right rows append after every left-driven output, in
        // right-row order, as in the reference interpreter.
        // All prior sides pad to NONE_ROW, so the pad row's slots read as
        // NULL and its lineage is the right row alone.
        if pad_r {
            let last = batch.ids.len() - 1;
            for (ri, matched) in matched_right.iter().enumerate() {
                if !*matched {
                    for side in &mut batch.ids[..last] {
                        side.push(NONE_ROW);
                    }
                    batch.ids[last].push(ri as u32);
                }
            }
        }
        joins[ji].rows_out += batch.len();
        joins[ji].ns += lap(t);
    }

    if let Some(pred) = &core.filter {
        let t = timing.then(Instant::now);
        let n = batch.len();
        filter_acc.rows_in += n;
        filter_acc.comparisons += n;
        let col = eval_col(pred, bx, shape, &batch, None)?;
        let sel: Vec<u32> = (0..n)
            .filter(|&r| col.get(r).is_truthy())
            .map(|r| r as u32)
            .collect();
        batch = gather(&batch, &sel);
        filter_acc.rows_out += batch.len();
        filter_acc.ns += lap(t);
    }

    let mut agg_ns = 0u64;
    let data = if core.grouped {
        let partial = if core.group_by.is_empty() {
            Vec::new()
        } else {
            let t = timing.then(Instant::now);
            let mut key_cols = Vec::with_capacity(core.group_by.len());
            for g in &core.group_by {
                key_cols.push(eval_col(g, bx, shape, &batch, None)?);
            }
            let mut index: HashMap<Vec<KeyValue>, usize> = HashMap::new();
            let mut partial: Vec<(Vec<KeyValue>, Vec<u32>)> = Vec::new();
            for r in 0..batch.len() {
                let key: Vec<KeyValue> = key_cols.iter().map(|c| c.get(r).key()).collect();
                let slot = match index.get(&key) {
                    Some(&slot) => slot,
                    None => {
                        let slot = partial.len();
                        index.insert(key.clone(), slot);
                        partial.push((key, Vec::new()));
                        slot
                    }
                };
                partial[slot].1.push(r as u32);
            }
            agg_ns = lap(t);
            partial
        };
        MorselData::Grouped { batch, partial }
    } else {
        MorselData::Rows(project_morsel(bx, shape, core, &batch)?)
    };

    Ok(MorselOut {
        scan,
        joins,
        filter: filter_acc,
        agg_ns,
        data,
    })
}

/// Materializes one filtered morsel into output rows (late
/// materialization): expression projections and ORDER BY keys are
/// evaluated as whole columns first, then rows are assembled.
fn project_morsel(
    bx: &BCtx<'_>,
    shape: &Shape,
    core: &CCore,
    batch: &Batch,
) -> Result<Vec<COutRow>, ExecError> {
    let n = batch.len();
    let mut proj_cols: Vec<Option<ECol<'_>>> = Vec::with_capacity(core.projections.len());
    for item in &core.projections {
        proj_cols.push(match item {
            CProj::Slots(_) => None,
            CProj::Expr(e) => Some(eval_col(e, bx, shape, batch, None)?),
        });
    }
    let mut order_cols = Vec::with_capacity(core.order_exprs.len());
    for o in &core.order_exprs {
        order_cols.push(eval_col(o, bx, shape, batch, None)?);
    }
    let mut out_rows = Vec::with_capacity(n);
    for r in 0..n {
        let mut values = Vec::new();
        for (item, col) in core.projections.iter().zip(&proj_cols) {
            match item {
                CProj::Slots(idxs) => values.extend(
                    idxs.iter()
                        .map(|&i| slot_val(bx, shape, batch, r, i).clone()),
                ),
                CProj::Expr(_) => values.push(
                    col.as_ref()
                        .expect("expr projection has a column")
                        .get(r)
                        .clone(),
                ),
            }
        }
        let order_keys = order_cols.iter().map(|c| c.get(r).clone()).collect();
        out_rows.push(COutRow {
            values,
            lineage: row_lineage(shape, batch, r),
            order_keys,
        });
    }
    Ok(out_rows)
}

/// An evaluated expression column over a batch (or a selection of it).
enum ECol<'b> {
    /// Borrowed values gathered straight from table columns (slot reads).
    Refs(Vec<&'b Value>),
    /// Computed values.
    Owned(Vec<Value>),
    /// One value replicated across the column (constants).
    Splat(Value),
}

impl ECol<'_> {
    fn get(&self, i: usize) -> &Value {
        match self {
            ECol::Refs(v) => v[i],
            ECol::Owned(v) => &v[i],
            ECol::Splat(v) => v,
        }
    }
}

/// Evaluates `e` over `sel` (or the whole batch when `None`), producing a
/// column of `sel.len()` values. Visits exactly the evaluation sites a
/// row-at-a-time walk would visit for the same rows — see the module docs.
fn eval_col<'b>(
    e: &CExpr,
    bx: &'b BCtx<'_>,
    shape: &Shape,
    batch: &Batch,
    sel: Option<&[u32]>,
) -> Result<ECol<'b>, ExecError> {
    let n = sel.map_or(batch.len(), <[u32]>::len);
    let row_at = |k: usize| sel.map_or(k, |s| s[k] as usize);
    match e {
        CExpr::Slot(i) => Ok(ECol::Refs(
            (0..n)
                .map(|k| slot_val(bx, shape, batch, row_at(k), *i))
                .collect(),
        )),
        CExpr::Const(v) => Ok(ECol::Splat(v.clone())),
        CExpr::Binary { op, left, right } => {
            let l = eval_col(left, bx, shape, batch, sel)?;
            let r = eval_col(right, bx, shape, batch, sel)?;
            Ok(ECol::Owned(
                (0..n)
                    .map(|k| eval_binary(*op, l.get(k), r.get(k)))
                    .collect(),
            ))
        }
        CExpr::Not(inner) => {
            let v = eval_col(inner, bx, shape, batch, sel)?;
            let mut out = Vec::with_capacity(n);
            for k in 0..n {
                let v = v.get(k);
                out.push(if v.is_null() {
                    Value::Null
                } else {
                    Value::Bool(!v.is_truthy())
                });
            }
            Ok(ECol::Owned(out))
        }
        CExpr::Agg { .. } => {
            // The error needs a row to evaluate (as in the reference
            // interpreter); an empty selection must stay silent.
            if n == 0 {
                Ok(ECol::Owned(Vec::new()))
            } else {
                Err(ExecError::new(
                    "aggregate used outside of an aggregate context",
                ))
            }
        }
        CExpr::InProbeRef { expr, sub, negated } => {
            let needle = eval_col(expr, bx, shape, batch, sel)?;
            match &bx.run.subs[*sub] {
                SubResult::Probe(p) => {
                    let mut out = Vec::with_capacity(n);
                    for k in 0..n {
                        out.push(Value::Bool(p.contains(needle.get(k)) != *negated));
                    }
                    Ok(ECol::Owned(out))
                }
                SubResult::Const(_) => {
                    if n == 0 {
                        Ok(ECol::Owned(Vec::new()))
                    } else {
                        Err(ExecError::new("internal: IN site bound to a constant"))
                    }
                }
            }
        }
        CExpr::SubConst { sub } => match &bx.run.subs[*sub] {
            SubResult::Const(v) => Ok(ECol::Splat(v.clone())),
            SubResult::Probe(_) => {
                if n == 0 {
                    Ok(ECol::Owned(Vec::new()))
                } else {
                    Err(ExecError::new("internal: constant site bound to a probe"))
                }
            }
        },
        CExpr::InConstList {
            expr,
            probe,
            negated,
        } => {
            let needle = eval_col(expr, bx, shape, batch, sel)?;
            let mut out = Vec::with_capacity(n);
            for k in 0..n {
                out.push(Value::Bool(probe.contains(needle.get(k)) != *negated));
            }
            Ok(ECol::Owned(out))
        }
        CExpr::InList {
            expr,
            list,
            negated,
        } => {
            // Per-row short-circuit: each list item is evaluated only over
            // rows no earlier item matched, so error reachability matches a
            // row-at-a-time walk.
            let needle = eval_col(expr, bx, shape, batch, sel)?;
            let mut out = vec![Value::Bool(*negated); n];
            let mut rem_pos: Vec<usize> = (0..n).collect();
            for item in list {
                if rem_pos.is_empty() {
                    break;
                }
                let rem_rows: Vec<u32> = rem_pos.iter().map(|&k| row_at(k) as u32).collect();
                let item_col = eval_col(item, bx, shape, batch, Some(&rem_rows))?;
                let mut next_rem = Vec::with_capacity(rem_pos.len());
                for (j, &k) in rem_pos.iter().enumerate() {
                    if needle.get(k).sql_eq(item_col.get(j)) == Some(true) {
                        out[k] = Value::Bool(!*negated);
                    } else {
                        next_rem.push(k);
                    }
                }
                rem_pos = next_rem;
            }
            Ok(ECol::Owned(out))
        }
        CExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_col(expr, bx, shape, batch, sel)?;
            let lo = eval_col(low, bx, shape, batch, sel)?;
            let hi = eval_col(high, bx, shape, batch, sel)?;
            let mut out = Vec::with_capacity(n);
            for k in 0..n {
                let v = v.get(k);
                out.push(match (v.sql_cmp(lo.get(k)), v.sql_cmp(hi.get(k))) {
                    (Some(a), Some(b)) => {
                        let inside =
                            a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                        Value::Bool(inside != *negated)
                    }
                    _ => Value::Null,
                });
            }
            Ok(ECol::Owned(out))
        }
        CExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_col(expr, bx, shape, batch, sel)?;
            let mut out = Vec::with_capacity(n);
            for k in 0..n {
                out.push(match v.get(k).sql_like(pattern) {
                    Some(m) => Value::Bool(m != *negated),
                    None => Value::Null,
                });
            }
            Ok(ECol::Owned(out))
        }
        CExpr::IsNull { expr, negated } => {
            let v = eval_col(expr, bx, shape, batch, sel)?;
            let mut out = Vec::with_capacity(n);
            for k in 0..n {
                out.push(Value::Bool(v.get(k).is_null() != *negated));
            }
            Ok(ECol::Owned(out))
        }
        CExpr::Case {
            operand,
            branches,
            else_,
        } => {
            // Lazy per-branch partitioning (the IN-list narrowing idiom):
            // each WHEN sees only rows no earlier branch matched, each THEN
            // only the rows its WHEN matched, and ELSE only the rows nothing
            // matched — so error reachability matches a row-at-a-time walk.
            let opv = operand
                .as_ref()
                .map(|o| eval_col(o, bx, shape, batch, sel))
                .transpose()?;
            let mut out = vec![Value::Null; n];
            let mut rem_pos: Vec<usize> = (0..n).collect();
            for (when, then) in branches {
                if rem_pos.is_empty() {
                    break;
                }
                let rem_rows: Vec<u32> = rem_pos.iter().map(|&k| row_at(k) as u32).collect();
                let when_col = eval_col(when, bx, shape, batch, Some(&rem_rows))?;
                let mut matched_pos: Vec<usize> = Vec::new();
                let mut next_rem: Vec<usize> = Vec::with_capacity(rem_pos.len());
                for (j, &k) in rem_pos.iter().enumerate() {
                    let hit = match &opv {
                        Some(op) => op.get(k).sql_eq(when_col.get(j)) == Some(true),
                        None => when_col.get(j).is_truthy(),
                    };
                    if hit {
                        matched_pos.push(k);
                    } else {
                        next_rem.push(k);
                    }
                }
                if !matched_pos.is_empty() {
                    let hit_rows: Vec<u32> =
                        matched_pos.iter().map(|&k| row_at(k) as u32).collect();
                    let then_col = eval_col(then, bx, shape, batch, Some(&hit_rows))?;
                    for (j, &k) in matched_pos.iter().enumerate() {
                        out[k] = then_col.get(j).clone();
                    }
                }
                rem_pos = next_rem;
            }
            if let Some(e) = else_ {
                if !rem_pos.is_empty() {
                    let rem_rows: Vec<u32> = rem_pos.iter().map(|&k| row_at(k) as u32).collect();
                    let else_col = eval_col(e, bx, shape, batch, Some(&rem_rows))?;
                    for (j, &k) in rem_pos.iter().enumerate() {
                        out[k] = else_col.get(j).clone();
                    }
                }
            }
            Ok(ECol::Owned(out))
        }
    }
}

/// Grouped evaluation over a group's row indices: aggregates fold over
/// the group's column values; bare expressions take the first row
/// (SQLite-style).
fn beval_group(
    e: &CExpr,
    bx: &BCtx<'_>,
    shape: &Shape,
    batch: &Batch,
    rows: &[u32],
) -> Result<Value, ExecError> {
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
                Ok(Value::Int(rows.len() as i64))
            }
            Some(inner) => {
                let col = eval_col(inner, bx, shape, batch, Some(rows))?;
                let mut values: Vec<Value> = Vec::new();
                for k in 0..rows.len() {
                    let v = col.get(k);
                    if !v.is_null() {
                        values.push(v.clone());
                    }
                }
                if *distinct {
                    dedup_distinct(&mut values);
                }
                Ok(fold_agg(*func, &values))
            }
        },
        CExpr::Binary { op, left, right } => Ok(eval_binary(
            *op,
            &beval_group(left, bx, shape, batch, rows)?,
            &beval_group(right, bx, shape, batch, rows)?,
        )),
        CExpr::Not(inner) => {
            let v = beval_group(inner, bx, shape, batch, rows)?;
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
                .map(|o| beval_group(o, bx, shape, batch, rows))
                .transpose()?;
            for (when, then) in branches {
                let w = beval_group(when, bx, shape, batch, rows)?;
                let hit = match &opv {
                    Some(op) => op.sql_eq(&w) == Some(true),
                    None => w.is_truthy(),
                };
                if hit {
                    return beval_group(then, bx, shape, batch, rows);
                }
            }
            match else_ {
                Some(e) => beval_group(e, bx, shape, batch, rows),
                None => Ok(Value::Null),
            }
        }
        _ => match rows.first() {
            Some(&r0) => Ok(eval_col(e, bx, shape, batch, Some(&[r0]))?.get(0).clone()),
            None => Ok(Value::Null),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_id_guard_names_the_table_and_its_rows() {
        assert!(check_row_ids("city", (NONE_ROW - 1) as usize).is_ok());
        let err = check_row_ids("city", NONE_ROW as usize).unwrap_err();
        assert_eq!(
            err.message(),
            "table city has 4294967295 rows; the engine addresses at most 4294967294 rows per table"
        );
    }
}
