//! The reference interpreter: the original tree-walking executor, retained
//! verbatim as the semantic baseline for the compiled engine.
//!
//! It resolves column names per row (`RefEnv::lookup` is a linear scan),
//! re-executes uncorrelated subqueries per candidate row, and keys
//! GROUP BY / DISTINCT / set operations on joined `group_key` strings —
//! exactly the costs the compiled path in [`crate::compile()`] removes. The
//! differential tests run every generated benchmark query through both
//! paths and assert identical results *and* lineage; `storage_bench`
//! measures the throughput gap.
//!
//! Scalar arithmetic and aggregate folding are shared with the compiled
//! engine via the private `scalar` module, so numeric fixes apply to both paths.

use crate::error::ExecError;
use crate::exec::{ExecOutput, Lineage, SourceRef};
use crate::result::ResultSet;
use crate::scalar::{dedup_distinct, eval_binary, fold_agg, sort_by_order_keys};
use crate::schema::{ColumnDef, DataType, TableSchema};
use crate::table::{Database, Table};
use crate::value::Value;
use cyclesql_sql::{
    AggFunc, Expr, FuncArg, Query, QueryBody, SelectCore, SelectItem, SetOp, SortOrder,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Executes a query on the reference interpreter, discarding lineage.
///
/// # Errors
///
/// Returns [`ExecError`] for unknown tables/columns, arity mismatches in set
/// operations, or unsupported constructs (correlated subqueries).
pub fn execute(db: &Database, q: &Query) -> Result<ResultSet, ExecError> {
    execute_with_lineage(db, q).map(|o| o.result)
}

/// Executes a query on the reference interpreter, tracking per-row lineage.
///
/// # Errors
///
/// See [`execute`].
pub fn execute_with_lineage(db: &Database, q: &Query) -> Result<ExecOutput, ExecError> {
    exec_query(db, q).map(|(out, _)| out)
}

/// Executes a query and also reports the bare (unqualified, lower-case)
/// output column names — the schema a `WITH` definition materialized from
/// this query exposes.
///
/// The query's own CTEs execute first, in declaration order, each against
/// a growing shadow copy of the database; every materialized table is
/// front-inserted so it shadows schema tables and enclosing definitions of
/// the same name, and subqueries inside later bodies (and the main body)
/// see it like any other table. Body lineage recorded against a CTE
/// materialized at *this* level is expanded into that CTE row's own
/// base-table lineage at this level's output boundary (order-preserving,
/// first occurrence wins); references to an enclosing scope's CTEs pass
/// through untouched for the enclosing level to expand.
fn exec_query(db: &Database, q: &Query) -> Result<(ExecOutput, Vec<String>), ExecError> {
    validate_names(db, q)?;
    if q.ctes.is_empty() {
        let out = exec_no_ctes(db, q)?;
        let env = from_env(db, first_core(&q.body))?;
        let bare = bare_projection_names(first_core(&q.body), &env);
        return Ok((out, bare));
    }
    let mut db2 = db.clone();
    // Lower-case CTE name → per-row base lineage of its materialization.
    let mut maps: HashMap<String, Vec<Lineage>> = HashMap::new();
    for cte in &q.ctes {
        let (body_out, bare) = exec_query(&db2, &cte.query)?;
        let expanded = expand_lineage(body_out.lineage, &maps);
        let schema = TableSchema::new(
            &cte.name,
            bare.iter()
                .map(|c| ColumnDef::new(c, DataType::Text))
                .collect(),
        );
        let mut table = Table::new(schema);
        for row in body_out.result.rows {
            table.push_row(row);
        }
        let key = table.schema.name.clone();
        db2.tables.insert(0, table);
        maps.insert(key, expanded);
    }
    let out = exec_no_ctes(&db2, q)?;
    let lineage = expand_lineage(out.lineage, &maps);
    let env = from_env(&db2, first_core(&q.body))?;
    let bare = bare_projection_names(first_core(&q.body), &env);
    Ok((
        ExecOutput {
            result: out.result,
            lineage,
        },
        bare,
    ))
}

/// Expands pseudo-references into materialized CTEs (rows of `maps`) into
/// their stored base lineage, order-preserving with first-occurrence
/// dedup; references to anything else pass through (deduped the same way,
/// matching the compiled engine's splice).
fn expand_lineage(lineage: Vec<Lineage>, maps: &HashMap<String, Vec<Lineage>>) -> Vec<Lineage> {
    lineage
        .into_iter()
        .map(|row| {
            let mut out: Lineage = Vec::with_capacity(row.len());
            for src in row {
                match maps.get(src.table.as_ref()) {
                    Some(rows) => {
                        for s in &rows[src.row] {
                            if !out.contains(s) {
                                out.push(s.clone());
                            }
                        }
                    }
                    None => {
                        if !out.contains(&src) {
                            out.push(src);
                        }
                    }
                }
            }
            out
        })
        .collect()
}

/// The left-most core of a body — the one whose projections name the
/// output columns.
fn first_core(body: &QueryBody) -> &SelectCore {
    match body {
        QueryBody::Select(core) => core,
        QueryBody::SetOp { left, .. } => first_core(left),
    }
}

/// The body / ORDER BY / LIMIT pipeline, ignoring `q.ctes` (the caller
/// has already materialized them into `db` when present).
fn exec_no_ctes(db: &Database, q: &Query) -> Result<ExecOutput, ExecError> {
    let mut rows = exec_body_with_order(db, &q.body, &q.order_by)?;
    // ORDER BY over the combined result. For plain selects the order keys
    // were computed during core execution; for set-op bodies we resolve
    // order keys against output columns.
    if !q.order_by.is_empty() {
        sort_by_order_keys(&mut rows.rows, &rows.order_keys, |r: &OutRow| &r.order_keys);
    }
    if let Some(n) = q.limit {
        rows.rows.truncate(n as usize);
    }
    // Split each OutRow into its value and lineage halves with a single
    // move — no row is cloned on the way out.
    let mut result_rows = Vec::with_capacity(rows.rows.len());
    let mut lineage = Vec::with_capacity(rows.rows.len());
    for r in rows.rows {
        result_rows.push(r.values);
        lineage.push(r.lineage);
    }
    let result = ResultSet {
        columns: rows.columns,
        rows: result_rows,
    };
    Ok(ExecOutput { result, lineage })
}

/// An output row mid-pipeline: projected values, lineage, and order keys.
#[derive(Debug, Clone)]
struct OutRow {
    values: Vec<Value>,
    lineage: Lineage,
    order_keys: Vec<Value>,
}

struct BodyOutput {
    columns: Vec<String>,
    rows: Vec<OutRow>,
    /// Sort directions aligned with each row's `order_keys`.
    order_keys: Vec<SortOrder>,
}

// The ORDER BY belongs to the whole query; its expressions are threaded down
// so every core computes sort keys in its own naming environment (both
// branches of a set operation must resolve the same ORDER BY columns).
fn exec_body_with_order(
    db: &Database,
    body: &QueryBody,
    order: &[cyclesql_sql::OrderItem],
) -> Result<BodyOutput, ExecError> {
    match body {
        QueryBody::Select(core) => exec_core(db, core, order),
        QueryBody::SetOp { op, left, right } => {
            let l = exec_body_with_order(db, left, order)?;
            let r = exec_body_with_order(db, right, order)?;
            if l.columns.len() != r.columns.len() {
                return Err(ExecError::new(format!(
                    "set operation arity mismatch: {} vs {}",
                    l.columns.len(),
                    r.columns.len()
                )));
            }
            Ok(apply_set_op(*op, l, r))
        }
    }
}

fn apply_set_op(op: SetOp, l: BodyOutput, r: BodyOutput) -> BodyOutput {
    let key = |row: &OutRow| -> String {
        row.values
            .iter()
            .map(Value::group_key)
            .collect::<Vec<_>>()
            .join("\u{1}")
    };
    let right_keys: HashMap<String, Vec<usize>> = {
        let mut m: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, row) in r.rows.iter().enumerate() {
            m.entry(key(row)).or_default().push(i);
        }
        m
    };
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    match op {
        SetOp::Union => {
            for row in l.rows.into_iter().chain(r.rows) {
                if seen.insert(key(&row)) {
                    out.push(row);
                }
            }
        }
        SetOp::Intersect => {
            for row in l.rows.into_iter() {
                let k = key(&row);
                if let Some(ri) = right_keys.get(&k) {
                    if seen.insert(k) {
                        // Merge lineage from one matching right row so the
                        // provenance spans both branches.
                        let mut row = row;
                        if let Some(&first) = ri.first() {
                            for src in &r.rows[first].lineage {
                                if !row.lineage.contains(src) {
                                    row.lineage.push(src.clone());
                                }
                            }
                        }
                        out.push(row);
                    }
                }
            }
        }
        SetOp::Except => {
            for row in l.rows.into_iter() {
                let k = key(&row);
                if !right_keys.contains_key(&k) && seen.insert(k) {
                    out.push(row);
                }
            }
        }
    }
    BodyOutput {
        columns: l.columns,
        rows: out,
        order_keys: l.order_keys,
    }
}

// ---------------------------------------------------------------------------
// Core (single SELECT block) execution
// ---------------------------------------------------------------------------

/// One column visible in the working set.
#[derive(Debug, Clone)]
struct EnvCol {
    /// Visible table name (alias if present, else the table name).
    visible: String,
    /// Real (schema) table name.
    real: String,
    /// Column name.
    column: String,
}

/// Name-resolution environment for a select core. Unlike the compiled
/// engine's `Env` (which resolves once, at compile time), this one is
/// consulted per column reference per row.
struct RefEnv {
    cols: Vec<EnvCol>,
}

impl RefEnv {
    fn lookup(&self, r: &cyclesql_sql::ColumnRef) -> Result<usize, ExecError> {
        match &r.table {
            Some(t) => self
                .cols
                .iter()
                .position(|c| (c.visible == *t || c.real == *t) && c.column == r.column)
                .ok_or_else(|| ExecError::new(format!("unknown column {t}.{}", r.column))),
            None => self
                .cols
                .iter()
                .position(|c| c.column == r.column)
                .ok_or_else(|| ExecError::new(format!("unknown column {}", r.column))),
        }
    }

    fn columns_of_visible(&self, table: &str) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.visible == table || c.real == table)
            .map(|(i, _)| i)
            .collect()
    }
}

/// One joined row in the working set.
#[derive(Debug, Clone)]
struct WorkRow {
    values: Vec<Value>,
    lineage: Lineage,
}

fn exec_core(
    db: &Database,
    core: &SelectCore,
    order: &[cyclesql_sql::OrderItem],
) -> Result<BodyOutput, ExecError> {
    let (env, mut work) = scan_and_join(db, core)?;

    if let Some(pred) = &core.where_clause {
        let mut kept = Vec::with_capacity(work.len());
        for row in work.into_iter() {
            if eval(pred, &env, &row, db)?.is_truthy() {
                kept.push(row);
            }
        }
        work = kept;
    }

    let grouped = !core.group_by.is_empty()
        || core.has_aggregate()
        || core.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || order.iter().any(|o| o.expr.contains_aggregate());

    let columns = projection_names(core, &env);
    let order_dirs: Vec<SortOrder> = order.iter().map(|o| o.order).collect();

    let mut out_rows: Vec<OutRow> = Vec::new();
    if grouped {
        let groups = group_rows(&core.group_by, &env, &work, db)?;
        for group in groups {
            if let Some(h) = &core.having {
                if !eval_in_group(h, &env, &group, db)?.is_truthy() {
                    continue;
                }
            }
            let mut values = Vec::new();
            for item in &core.projections {
                project_item(item, &env, ProjCtx::Group(&group), db, &mut values)?;
            }
            let mut order_keys = Vec::new();
            for o in order {
                order_keys.push(eval_in_group(&o.expr, &env, &group, db)?);
            }
            let mut lineage: Lineage = Vec::new();
            for r in &group {
                for src in &r.lineage {
                    if !lineage.contains(src) {
                        lineage.push(src.clone());
                    }
                }
            }
            out_rows.push(OutRow {
                values,
                lineage,
                order_keys,
            });
        }
    } else {
        for row in &work {
            let mut values = Vec::new();
            for item in &core.projections {
                project_item(item, &env, ProjCtx::Row(row), db, &mut values)?;
            }
            let mut order_keys = Vec::new();
            for o in order {
                order_keys.push(eval(&o.expr, &env, row, db)?);
            }
            out_rows.push(OutRow {
                values,
                lineage: row.lineage.clone(),
                order_keys,
            });
        }
    }

    if core.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|r| {
            let k: String = r
                .values
                .iter()
                .map(Value::group_key)
                .collect::<Vec<_>>()
                .join("\u{1}");
            seen.insert(k)
        });
    }

    Ok(BodyOutput {
        columns,
        rows: out_rows,
        order_keys: order_dirs,
    })
}

fn scan_and_join(db: &Database, core: &SelectCore) -> Result<(RefEnv, Vec<WorkRow>), ExecError> {
    let mut env = RefEnv { cols: Vec::new() };
    let base_table = db
        .table(&core.from.base.name)
        .ok_or_else(|| ExecError::new(format!("unknown table {}", core.from.base.name)))?;
    let base_visible = core.from.base.visible_name().to_string();
    for c in &base_table.schema.columns {
        env.cols.push(EnvCol {
            visible: base_visible.clone(),
            real: base_table.schema.name.clone(),
            column: c.name.clone(),
        });
    }
    let base_name: Arc<str> = Arc::from(base_table.schema.name.as_str());
    let mut work: Vec<WorkRow> = base_table
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| WorkRow {
            values: r.clone(),
            lineage: vec![SourceRef {
                table: Arc::clone(&base_name),
                row: i,
            }],
        })
        .collect();

    for join in &core.from.joins {
        let right = db
            .table(&join.table.name)
            .ok_or_else(|| ExecError::new(format!("unknown table {}", join.table.name)))?;
        let right_visible = join.table.visible_name().to_string();
        let right_start = env.cols.len();
        for c in &right.schema.columns {
            env.cols.push(EnvCol {
                visible: right_visible.clone(),
                real: right.schema.name.clone(),
                column: c.name.clone(),
            });
        }
        let right_name: Arc<str> = Arc::from(right.schema.name.as_str());
        // Fast path: a single-equality ON over one existing column and one
        // column of the joined table becomes a hash join. NULL keys never
        // match (3VL), mirroring the nested-loop `sql_eq` semantics; the
        // equivalence is pinned by a property test.
        let hash_plan = join
            .on
            .as_ref()
            .and_then(|on| equi_join_plan(on, &env, right_start));
        let (pad_l, pad_r) = join.join_type.pads();
        // Which right rows matched at least one left row; only tracked
        // when this flavor pads the right side.
        let mut matched_right = vec![false; if pad_r { right.rows.len() } else { 0 }];
        let mut joined = Vec::new();
        match hash_plan {
            Some((left_idx, right_col_offset)) => {
                let mut index: HashMap<String, Vec<usize>> = HashMap::new();
                for (ri, right_row) in right.rows.iter().enumerate() {
                    let key = &right_row[right_col_offset];
                    if !key.is_null() {
                        index.entry(key.group_key()).or_default().push(ri);
                    }
                }
                for left_row in &work {
                    let key = &left_row.values[left_idx];
                    let matches: &[usize] = if key.is_null() {
                        &[]
                    } else {
                        index
                            .get(&key.group_key())
                            .map(|v| v.as_slice())
                            .unwrap_or(&[])
                    };
                    for &ri in matches {
                        if pad_r {
                            matched_right[ri] = true;
                        }
                        let mut candidate_values = left_row.values.clone();
                        candidate_values.extend(right.rows[ri].iter().cloned());
                        let mut lineage = left_row.lineage.clone();
                        lineage.push(SourceRef {
                            table: Arc::clone(&right_name),
                            row: ri,
                        });
                        joined.push(WorkRow {
                            values: candidate_values,
                            lineage,
                        });
                    }
                    if matches.is_empty() && pad_l {
                        let mut values = left_row.values.clone();
                        values.extend(std::iter::repeat_n(
                            Value::Null,
                            env.cols.len() - right_start,
                        ));
                        joined.push(WorkRow {
                            values,
                            lineage: left_row.lineage.clone(),
                        });
                    }
                }
            }
            None => {
                for left_row in &work {
                    let mut matched = false;
                    for (ri, right_row) in right.rows.iter().enumerate() {
                        let mut candidate_values = left_row.values.clone();
                        candidate_values.extend(right_row.iter().cloned());
                        let candidate = WorkRow {
                            values: candidate_values,
                            lineage: {
                                let mut l = left_row.lineage.clone();
                                l.push(SourceRef {
                                    table: Arc::clone(&right_name),
                                    row: ri,
                                });
                                l
                            },
                        };
                        let keep = match &join.on {
                            Some(on) => eval(on, &env, &candidate, db)?.is_truthy(),
                            None => true,
                        };
                        if keep {
                            matched = true;
                            if pad_r {
                                matched_right[ri] = true;
                            }
                            joined.push(candidate);
                        }
                    }
                    if !matched && pad_l {
                        let mut values = left_row.values.clone();
                        values.extend(std::iter::repeat_n(
                            Value::Null,
                            env.cols.len() - right_start,
                        ));
                        joined.push(WorkRow {
                            values,
                            lineage: left_row.lineage.clone(),
                        });
                    }
                }
            }
        }
        // Unmatched right rows append after every left-driven output, in
        // right-row order — the canonical order both engines share.
        // The joined prefix pads to NULL and the lineage is the right row
        // alone.
        if pad_r {
            for (ri, right_row) in right.rows.iter().enumerate() {
                if !matched_right[ri] {
                    let mut values = vec![Value::Null; right_start];
                    values.extend(right_row.iter().cloned());
                    joined.push(WorkRow {
                        values,
                        lineage: vec![SourceRef {
                            table: Arc::clone(&right_name),
                            row: ri,
                        }],
                    });
                }
            }
        }
        work = joined;
    }
    Ok((env, work))
}

/// Recognizes `ON a.x = b.y` where exactly one side resolves into the
/// already-joined prefix and the other into the freshly joined table.
/// Returns `(left working-set index, right-table column offset)`.
fn equi_join_plan(on: &Expr, env: &RefEnv, right_start: usize) -> Option<(usize, usize)> {
    let Expr::Binary {
        op: cyclesql_sql::BinOp::Eq,
        left,
        right,
    } = on
    else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    let ia = env.lookup(a).ok()?;
    let ib = env.lookup(b).ok()?;
    match (ia < right_start, ib < right_start) {
        (true, false) => Some((ia, ib - right_start)),
        (false, true) => Some((ib, ia - right_start)),
        // Both sides on the same side of the boundary: not a binary
        // equi-join over this step — fall back to the nested loop.
        _ => None,
    }
}

fn projection_names(core: &SelectCore, env: &RefEnv) -> Vec<String> {
    let mut names = Vec::new();
    for item in &core.projections {
        match item {
            SelectItem::Star => {
                for c in &env.cols {
                    names.push(format!("{}.{}", c.visible, c.column));
                }
            }
            SelectItem::QualifiedStar(t) => {
                for i in env.columns_of_visible(t) {
                    let c = &env.cols[i];
                    names.push(format!("{}.{}", c.visible, c.column));
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| expr.to_string()));
            }
        }
    }
    names
}

/// The naming environment a core's FROM clause exposes, without building
/// the working set — for computing a CTE's output schema after its body
/// has executed.
fn from_env(db: &Database, core: &SelectCore) -> Result<RefEnv, ExecError> {
    let mut env = RefEnv { cols: Vec::new() };
    let base_table = db
        .table(&core.from.base.name)
        .ok_or_else(|| ExecError::new(format!("unknown table {}", core.from.base.name)))?;
    let base_visible = core.from.base.visible_name().to_string();
    for c in &base_table.schema.columns {
        env.cols.push(EnvCol {
            visible: base_visible.clone(),
            real: base_table.schema.name.clone(),
            column: c.name.clone(),
        });
    }
    for join in &core.from.joins {
        let right = db
            .table(&join.table.name)
            .ok_or_else(|| ExecError::new(format!("unknown table {}", join.table.name)))?;
        let right_visible = join.table.visible_name().to_string();
        for c in &right.schema.columns {
            env.cols.push(EnvCol {
                visible: right_visible.clone(),
                real: right.schema.name.clone(),
                column: c.name.clone(),
            });
        }
    }
    Ok(env)
}

/// Bare (unqualified, lower-case) output column names — the schema a CTE
/// materialized from this core exposes to queries that scan it. Mirrors
/// the compiled engine's copy; keep the two in sync.
fn bare_projection_names(core: &SelectCore, env: &RefEnv) -> Vec<String> {
    let mut names = Vec::new();
    for item in &core.projections {
        match item {
            SelectItem::Star => {
                for c in &env.cols {
                    names.push(c.column.to_lowercase());
                }
            }
            SelectItem::QualifiedStar(t) => {
                for i in env.columns_of_visible(t) {
                    names.push(env.cols[i].column.to_lowercase());
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match (alias, expr) {
                    (Some(a), _) => a.clone(),
                    (None, Expr::Column(c)) => c.column.clone(),
                    (None, e) => e.to_string(),
                };
                names.push(name.to_lowercase());
            }
        }
    }
    names
}

// ---------------------------------------------------------------------------
// Eager name resolution
// ---------------------------------------------------------------------------
//
// The interpreter binds column names per row, so a query whose working set
// is empty would never touch an unresolvable reference — while the compiled
// engine rejects it at compile time. This pass walks the query in exactly
// the order `compile_core` lowers it (base table, then per join its table
// and ON, then WHERE, GROUP BY, HAVING, projections, ORDER BY, recursing
// into subqueries where they are hoisted) so the *first* error, and its
// message, are identical on every path.

/// A statically-known source: a CTE name and its output columns.
type NameScope = (String, Vec<String>);

fn validate_names(db: &Database, q: &Query) -> Result<(), ExecError> {
    validate_scoped(db, q, &[])
}

fn validate_scoped(db: &Database, q: &Query, outer: &[NameScope]) -> Result<(), ExecError> {
    let mut scope = outer.to_vec();
    for cte in &q.ctes {
        validate_scoped(db, &cte.query, &scope)?;
        let core = first_core(&cte.query.body);
        let mut env = RefEnv { cols: Vec::new() };
        push_source(db, &scope, &core.from.base, &mut env)?;
        for join in &core.from.joins {
            push_source(db, &scope, &join.table, &mut env)?;
        }
        scope.push((cte.name.clone(), bare_projection_names(core, &env)));
    }
    validate_vbody(db, &q.body, &q.order_by, &scope)
}

fn validate_vbody(
    db: &Database,
    body: &QueryBody,
    order: &[cyclesql_sql::OrderItem],
    scope: &[NameScope],
) -> Result<(), ExecError> {
    match body {
        QueryBody::Select(core) => validate_vcore(db, core, order, scope),
        QueryBody::SetOp { left, right, .. } => {
            validate_vbody(db, left, order, scope)?;
            validate_vbody(db, right, order, scope)
        }
    }
}

/// Resolves one `FROM` source — in-scope CTEs first (latest declaration
/// wins), then the database — and appends its columns to the environment.
fn push_source(
    db: &Database,
    scope: &[NameScope],
    source: &cyclesql_sql::TableRef,
    env: &mut RefEnv,
) -> Result<(), ExecError> {
    let visible = source.visible_name().to_string();
    if let Some((real, columns)) = scope
        .iter()
        .rev()
        .find(|(n, _)| n.eq_ignore_ascii_case(&source.name))
    {
        for c in columns {
            env.cols.push(EnvCol {
                visible: visible.clone(),
                real: real.clone(),
                column: c.clone(),
            });
        }
        return Ok(());
    }
    let t = db
        .table(&source.name)
        .ok_or_else(|| ExecError::new(format!("unknown table {}", source.name)))?;
    for c in &t.schema.columns {
        env.cols.push(EnvCol {
            visible: visible.clone(),
            real: t.schema.name.clone(),
            column: c.name.clone(),
        });
    }
    Ok(())
}

fn validate_vcore(
    db: &Database,
    core: &SelectCore,
    order: &[cyclesql_sql::OrderItem],
    scope: &[NameScope],
) -> Result<(), ExecError> {
    let mut env = RefEnv { cols: Vec::new() };
    push_source(db, scope, &core.from.base, &mut env)?;
    for join in &core.from.joins {
        push_source(db, scope, &join.table, &mut env)?;
        if let Some(on) = &join.on {
            validate_expr(db, on, &env, scope)?;
        }
    }
    if let Some(w) = &core.where_clause {
        validate_expr(db, w, &env, scope)?;
    }
    for g in &core.group_by {
        validate_expr(db, g, &env, scope)?;
    }
    if let Some(h) = &core.having {
        validate_expr(db, h, &env, scope)?;
    }
    for item in &core.projections {
        match item {
            SelectItem::Star => {}
            SelectItem::QualifiedStar(t) => {
                if env.columns_of_visible(t).is_empty() {
                    return Err(ExecError::new(format!("unknown table in projection: {t}")));
                }
            }
            SelectItem::Expr { expr, .. } => validate_expr(db, expr, &env, scope)?,
        }
    }
    for o in order {
        validate_expr(db, &o.expr, &env, scope)?;
    }
    Ok(())
}

/// Resolves every column reference in an expression, recursing into
/// subqueries with the enclosing CTE scope (they are uncorrelated, so the
/// outer column environment does not leak in). Exhaustive over [`Expr`]:
/// adding a variant must state its resolution rule here.
fn validate_expr(
    db: &Database,
    e: &Expr,
    env: &RefEnv,
    scope: &[NameScope],
) -> Result<(), ExecError> {
    match e {
        Expr::Column(c) => env.lookup(c).map(|_| ()),
        Expr::Literal(_) => Ok(()),
        Expr::Binary { left, right, .. } => {
            validate_expr(db, left, env, scope)?;
            validate_expr(db, right, env, scope)
        }
        Expr::Not(x) => validate_expr(db, x, env, scope),
        Expr::Agg { arg, .. } => match arg {
            FuncArg::Star => Ok(()),
            FuncArg::Expr(x) => validate_expr(db, x, env, scope),
        },
        Expr::InSubquery { expr, subquery, .. } => {
            validate_expr(db, expr, env, scope)?;
            validate_scoped(db, subquery, scope)
        }
        Expr::InList { expr, list, .. } => {
            validate_expr(db, expr, env, scope)?;
            for item in list {
                validate_expr(db, item, env, scope)?;
            }
            Ok(())
        }
        Expr::Exists { subquery, .. } => validate_scoped(db, subquery, scope),
        Expr::ScalarSubquery(subquery) => validate_scoped(db, subquery, scope),
        Expr::Between {
            expr, low, high, ..
        } => {
            validate_expr(db, expr, env, scope)?;
            validate_expr(db, low, env, scope)?;
            validate_expr(db, high, env, scope)
        }
        Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => validate_expr(db, expr, env, scope),
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            if let Some(op) = operand {
                validate_expr(db, op, env, scope)?;
            }
            for (cond, value) in branches {
                validate_expr(db, cond, env, scope)?;
                validate_expr(db, value, env, scope)?;
            }
            if let Some(x) = else_ {
                validate_expr(db, x, env, scope)?;
            }
            Ok(())
        }
    }
}

enum ProjCtx<'a> {
    Row(&'a WorkRow),
    Group(&'a [WorkRow]),
}

fn project_item(
    item: &SelectItem,
    env: &RefEnv,
    ctx: ProjCtx<'_>,
    db: &Database,
    out: &mut Vec<Value>,
) -> Result<(), ExecError> {
    let rep: Option<&WorkRow> = match &ctx {
        ProjCtx::Row(r) => Some(r),
        ProjCtx::Group(g) => g.first(),
    };
    match item {
        SelectItem::Star => match rep {
            Some(r) => out.extend(r.values.iter().cloned()),
            None => out.extend(std::iter::repeat_n(Value::Null, env.cols.len())),
        },
        SelectItem::QualifiedStar(t) => {
            let idxs = env.columns_of_visible(t);
            if idxs.is_empty() {
                return Err(ExecError::new(format!("unknown table in projection: {t}")));
            }
            match rep {
                Some(r) => out.extend(idxs.iter().map(|&i| r.values[i].clone())),
                None => out.extend(std::iter::repeat_n(Value::Null, idxs.len())),
            }
        }
        SelectItem::Expr { expr, .. } => {
            let v = match ctx {
                ProjCtx::Row(r) => eval(expr, env, r, db)?,
                ProjCtx::Group(g) => eval_in_group(expr, env, g, db)?,
            };
            out.push(v);
        }
    }
    Ok(())
}

fn group_rows(
    group_by: &[Expr],
    env: &RefEnv,
    work: &[WorkRow],
    db: &Database,
) -> Result<Vec<Vec<WorkRow>>, ExecError> {
    if group_by.is_empty() {
        // Single group over the full input — even if empty (so `count(*)`
        // over an empty table yields 0).
        return Ok(vec![work.to_vec()]);
    }
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<WorkRow>> = HashMap::new();
    for row in work {
        let mut key_parts = Vec::with_capacity(group_by.len());
        for g in group_by {
            key_parts.push(eval(g, env, row, db)?.group_key());
        }
        let key = key_parts.join("\u{1}");
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row.clone());
    }
    Ok(order
        .into_iter()
        .map(|k| groups.remove(&k).expect("group present"))
        .collect())
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

fn eval(e: &Expr, env: &RefEnv, row: &WorkRow, db: &Database) -> Result<Value, ExecError> {
    match e {
        Expr::Column(c) => Ok(row.values[env.lookup(c)?].clone()),
        Expr::Literal(l) => Ok(Value::from_literal(l)),
        Expr::Binary { op, left, right } => Ok(eval_binary(
            *op,
            &eval(left, env, row, db)?,
            &eval(right, env, row, db)?,
        )),
        Expr::Not(inner) => {
            let v = eval(inner, env, row, db)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.is_truthy()))
            }
        }
        Expr::Agg { .. } => Err(ExecError::new(
            "aggregate used outside of an aggregate context",
        )),
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let needle = eval(expr, env, row, db)?;
            let sub = execute(db, subquery)?;
            let found = sub.rows.iter().any(|r| {
                r.first()
                    .map(|v| needle.sql_eq(v) == Some(true))
                    .unwrap_or(false)
            });
            Ok(Value::Bool(found != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval(expr, env, row, db)?;
            let mut found = false;
            for item in list {
                let v = eval(item, env, row, db)?;
                if needle.sql_eq(&v) == Some(true) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Exists { subquery, negated } => {
            let sub = execute(db, subquery)?;
            Ok(Value::Bool(sub.is_empty() == *negated))
        }
        Expr::ScalarSubquery(q) => {
            let sub = execute(db, q)?;
            Ok(sub
                .rows
                .first()
                .and_then(|r| r.first().cloned())
                .unwrap_or(Value::Null))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, env, row, db)?;
            let lo = eval(low, env, row, db)?;
            let hi = eval(high, env, row, db)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, env, row, db)?;
            match v.sql_like(pattern) {
                Some(m) => Ok(Value::Bool(m != *negated)),
                None => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, env, row, db)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            // Lazy: operand once, WHENs until the first hit, one THEN.
            let opv = operand
                .as_ref()
                .map(|o| eval(o, env, row, db))
                .transpose()?;
            for (when, then) in branches {
                let w = eval(when, env, row, db)?;
                let hit = match &opv {
                    Some(op) => op.sql_eq(&w) == Some(true),
                    None => w.is_truthy(),
                };
                if hit {
                    return eval(then, env, row, db);
                }
            }
            match else_ {
                Some(e) => eval(e, env, row, db),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluates an expression in a grouped context: aggregates fold over the
/// group; bare columns take the first row's value (SQLite-style).
fn eval_in_group(
    e: &Expr,
    env: &RefEnv,
    group: &[WorkRow],
    db: &Database,
) -> Result<Value, ExecError> {
    match e {
        Expr::Agg {
            func,
            distinct,
            arg,
        } => eval_agg(*func, *distinct, arg, env, group, db),
        Expr::Binary { op, left, right } => Ok(eval_binary(
            *op,
            &eval_in_group(left, env, group, db)?,
            &eval_in_group(right, env, group, db)?,
        )),
        Expr::Not(inner) => {
            let v = eval_in_group(inner, env, group, db)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.is_truthy()))
            }
        }
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            // CASE over a group: branches may mix aggregates and group
            // keys, so every sub-expression recurses through the group
            // evaluator. Same lazy order as the per-row form.
            let opv = operand
                .as_ref()
                .map(|o| eval_in_group(o, env, group, db))
                .transpose()?;
            for (when, then) in branches {
                let w = eval_in_group(when, env, group, db)?;
                let hit = match &opv {
                    Some(op) => op.sql_eq(&w) == Some(true),
                    None => w.is_truthy(),
                };
                if hit {
                    return eval_in_group(then, env, group, db);
                }
            }
            match else_ {
                Some(e) => eval_in_group(e, env, group, db),
                None => Ok(Value::Null),
            }
        }
        _ => match group.first() {
            Some(first) => eval(e, env, first, db),
            None => Ok(Value::Null),
        },
    }
}

fn eval_agg(
    func: AggFunc,
    distinct: bool,
    arg: &FuncArg,
    env: &RefEnv,
    group: &[WorkRow],
    db: &Database,
) -> Result<Value, ExecError> {
    // Collect the argument values (non-null), honoring DISTINCT.
    let mut values: Vec<Value> = Vec::new();
    match arg {
        FuncArg::Star => {
            if func != AggFunc::Count {
                return Err(ExecError::new(format!("{}(*) is not valid", func.name())));
            }
            return Ok(Value::Int(group.len() as i64));
        }
        FuncArg::Expr(inner) => {
            for row in group {
                let v = eval(inner, env, row, db)?;
                if !v.is_null() {
                    values.push(v);
                }
            }
        }
    }
    if distinct {
        dedup_distinct(&mut values);
    }
    Ok(fold_agg(func, &values))
}
