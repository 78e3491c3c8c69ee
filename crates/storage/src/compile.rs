//! The compile pass: lowers a parsed [`Query`] against a database schema
//! into a [`CompiledQuery`].
//!
//! All name resolution happens here, once — `Env::resolve` is only
//! reachable from this module, so a successfully compiled query performs
//! zero name lookups at run time, and resolution errors (unknown tables or
//! columns, projection arity problems, set-operation arity mismatches)
//! surface at compile time with the same messages the reference
//! interpreter produces at run time.
//!
//! Subqueries are compiled recursively into prologue plans
//! (`SubPlan`s in [`crate::ir`]); the engine executes each exactly once per run.
//!
//! A compiled plan is immutable and `Sync`: runs borrow it read-only, so
//! one plan serves every database sharing its schema (the TS variants)
//! and the morsel pool's workers share it without copies or locks.

use crate::error::ExecError;
use crate::ir::{
    CBody, CCore, CExpr, CJoin, CProj, CompiledQuery, CtePlan, InProbe, JoinStrategy, SubKind,
    SubPlan,
};
use crate::table::Database;
use crate::value::Value;
use cyclesql_sql::{BinOp, Expr, FuncArg, OrderItem, Query, QueryBody, SelectCore, SelectItem};

/// Compiles `query` against `db`'s schema.
///
/// The returned plan can run against any database with the same schema
/// (table data is not consulted — the TS metric reuses one plan across
/// data variants).
///
/// # Errors
///
/// Returns [`ExecError`] for unknown tables/columns, unknown tables in
/// qualified-star projections, and set-operation arity mismatches — the
/// same conditions (and messages) the reference interpreter reports at
/// run time.
pub fn compile(db: &Database, query: &Query) -> Result<CompiledQuery, ExecError> {
    compile_scoped(db, query, &[])
}

/// The schema one in-scope CTE exposes: its declared name and the bare
/// output column names of its body.
#[derive(Clone)]
struct CteSchema {
    name: String,
    columns: Vec<String>,
}

/// Compiles `query` with `outer` CTE definitions in scope. `WITH` bodies
/// compile before the main body, each seeing the outer scope plus every
/// earlier sibling; an inner definition shadows an outer one of the same
/// name, exactly as the reference interpreter's shadow-database front
/// insertion resolves it.
fn compile_scoped(
    db: &Database,
    query: &Query,
    outer: &[CteSchema],
) -> Result<CompiledQuery, ExecError> {
    let mut c = Compiler {
        db,
        tables: Vec::new(),
        ctes: Vec::new(),
        subs: Vec::new(),
        scope: outer.to_vec(),
    };
    for cte in &query.ctes {
        let plan = compile_scoped(db, &cte.query, &c.scope)?;
        let columns = plan.body.first_core().bare_columns.clone();
        c.scope.push(CteSchema {
            name: cte.name.clone(),
            columns: columns.clone(),
        });
        c.ctes.push(CtePlan {
            name: cte.name.clone(),
            plan,
            columns,
        });
    }
    let body = c.compile_body(&query.body, &query.order_by)?;
    Ok(CompiledQuery {
        tables: c.tables,
        ctes: c.ctes,
        subs: c.subs,
        body,
        order_dirs: query.order_by.iter().map(|o| o.order).collect(),
        limit: query.limit,
    })
}

/// One column visible in a core's working set.
struct EnvCol {
    /// Visible table name (alias if present, else the table name).
    visible: String,
    /// Real (schema) table name.
    real: String,
    /// Column name.
    column: String,
}

/// Compile-time name-resolution environment for one select core. Column
/// references resolve to working-set slot indices exactly once, here;
/// the run loop only ever sees slots.
struct Env {
    cols: Vec<EnvCol>,
}

impl Env {
    fn resolve(&self, r: &cyclesql_sql::ColumnRef) -> Result<usize, ExecError> {
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

struct Compiler<'a> {
    db: &'a Database,
    tables: Vec<String>,
    ctes: Vec<CtePlan>,
    subs: Vec<SubPlan>,
    /// CTE definitions visible to `FROM` resolution: enclosing scopes
    /// first, then this query's own, in declaration order. Resolution
    /// scans latest-first so inner/later definitions shadow earlier ones.
    scope: Vec<CteSchema>,
}

impl Compiler<'_> {
    /// Interns a resolved source name — a (lower-case) schema table or a
    /// (verbatim) CTE name. The two cannot collide inside one plan: a CTE
    /// whose name matches a schema table shadows it, so only one of the
    /// pair is ever interned.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.tables.iter().position(|t| t == name) {
            return i as u32;
        }
        self.tables.push(name.to_string());
        (self.tables.len() - 1) as u32
    }

    /// Resolves a `FROM` source name: in-scope CTEs first (latest
    /// declaration wins, case-insensitive like schema lookup), then the
    /// database schema. Returns the canonical name to intern and the
    /// source's column names.
    fn source_schema(&self, name: &str) -> Result<(String, Vec<String>), ExecError> {
        if let Some(c) = self
            .scope
            .iter()
            .rev()
            .find(|c| c.name.eq_ignore_ascii_case(name))
        {
            return Ok((c.name.clone(), c.columns.clone()));
        }
        let t = self
            .db
            .table(name)
            .ok_or_else(|| ExecError::new(format!("unknown table {name}")))?;
        Ok((
            t.schema.name.clone(),
            t.schema.columns.iter().map(|c| c.name.clone()).collect(),
        ))
    }

    fn compile_body(&mut self, body: &QueryBody, order: &[OrderItem]) -> Result<CBody, ExecError> {
        match body {
            QueryBody::Select(core) => Ok(CBody::Select(Box::new(self.compile_core(core, order)?))),
            QueryBody::SetOp { op, left, right } => {
                let l = self.compile_body(left, order)?;
                let r = self.compile_body(right, order)?;
                if l.width() != r.width() {
                    return Err(ExecError::new(format!(
                        "set operation arity mismatch: {} vs {}",
                        l.width(),
                        r.width()
                    )));
                }
                Ok(CBody::SetOp {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                })
            }
        }
    }

    fn compile_core(&mut self, core: &SelectCore, order: &[OrderItem]) -> Result<CCore, ExecError> {
        let mut env = Env { cols: Vec::new() };
        let (base_real, base_cols) = self.source_schema(&core.from.base.name)?;
        let base = self.intern(&base_real);
        let base_visible = core.from.base.visible_name().to_string();
        for col in &base_cols {
            env.cols.push(EnvCol {
                visible: base_visible.clone(),
                real: base_real.clone(),
                column: col.clone(),
            });
        }

        let mut joins = Vec::with_capacity(core.from.joins.len());
        for join in &core.from.joins {
            let (right_real, right_cols) = self.source_schema(&join.table.name)?;
            let table = self.intern(&right_real);
            let right_visible = join.table.visible_name().to_string();
            let right_start = env.cols.len();
            for col in &right_cols {
                env.cols.push(EnvCol {
                    visible: right_visible.clone(),
                    real: right_real.clone(),
                    column: col.clone(),
                });
            }
            // Same fast-path rule as the reference interpreter: a single
            // equality with one side in the joined prefix and the other in
            // the fresh table hashes; everything else nested-loops.
            let strategy = match join
                .on
                .as_ref()
                .and_then(|on| equi_join_plan(on, &env, right_start))
            {
                Some((left_slot, right_col)) => JoinStrategy::Hash {
                    left_slot,
                    right_col,
                },
                None => JoinStrategy::Loop {
                    on: join
                        .on
                        .as_ref()
                        .map(|on| self.lower(on, &env))
                        .transpose()?,
                },
            };
            joins.push(CJoin {
                table,
                join_type: join.join_type,
                right_width: right_cols.len(),
                strategy,
                on_display: join.on.as_ref().map(|o| o.to_string()),
            });
        }

        let filter = core
            .where_clause
            .as_ref()
            .map(|w| self.lower(w, &env))
            .transpose()?;
        let group_by = core
            .group_by
            .iter()
            .map(|g| self.lower(g, &env))
            .collect::<Result<Vec<_>, _>>()?;
        let having = core
            .having
            .as_ref()
            .map(|h| self.lower(h, &env))
            .transpose()?;

        let grouped = !core.group_by.is_empty()
            || core.has_aggregate()
            || core.having.as_ref().is_some_and(|h| h.contains_aggregate())
            || order.iter().any(|o| o.expr.contains_aggregate());

        let columns: std::sync::Arc<[String]> = projection_names(core, &env).into();
        let bare_columns = bare_projection_names(core, &env);
        let projections = core
            .projections
            .iter()
            .map(|item| self.lower_projection(item, &env))
            .collect::<Result<Vec<_>, _>>()?;
        let order_exprs = order
            .iter()
            .map(|o| self.lower(&o.expr, &env))
            .collect::<Result<Vec<_>, _>>()?;

        Ok(CCore {
            base,
            joins,
            filter,
            filter_display: core.where_clause.as_ref().map(|w| w.to_string()),
            group_by,
            having,
            grouped,
            projections,
            columns,
            bare_columns,
            order_exprs,
            distinct: core.distinct,
        })
    }

    fn lower_projection(&mut self, item: &SelectItem, env: &Env) -> Result<CProj, ExecError> {
        match item {
            SelectItem::Star => Ok(CProj::Slots((0..env.cols.len()).collect())),
            SelectItem::QualifiedStar(t) => {
                let idxs = env.columns_of_visible(t);
                if idxs.is_empty() {
                    return Err(ExecError::new(format!("unknown table in projection: {t}")));
                }
                Ok(CProj::Slots(idxs))
            }
            SelectItem::Expr { expr, .. } => Ok(CProj::Expr(self.lower(expr, env)?)),
        }
    }

    /// Lowers a subquery into a prologue plan, returning its slot.
    fn hoist(&mut self, kind: SubKind, subquery: &Query) -> Result<usize, ExecError> {
        // Subqueries are always uncorrelated in this dialect (their columns
        // resolve in their own scope only), so a fresh recursive compile —
        // with its own interner, since subquery lineage is discarded — is
        // the complete story. The enclosing CTE scope stays visible: the
        // reference interpreter executes subqueries against the shadow
        // database that already holds every materialized CTE.
        let plan = compile_scoped(self.db, subquery, &self.scope)?;
        self.subs.push(SubPlan { kind, plan });
        Ok(self.subs.len() - 1)
    }

    fn lower(&mut self, e: &Expr, env: &Env) -> Result<CExpr, ExecError> {
        Ok(match e {
            Expr::Column(c) => CExpr::Slot(env.resolve(c)?),
            Expr::Literal(l) => CExpr::Const(Value::from_literal(l)),
            Expr::Binary { op, left, right } => CExpr::Binary {
                op: *op,
                left: Box::new(self.lower(left, env)?),
                right: Box::new(self.lower(right, env)?),
            },
            Expr::Not(inner) => CExpr::Not(Box::new(self.lower(inner, env)?)),
            Expr::Agg {
                func,
                distinct,
                arg,
            } => CExpr::Agg {
                func: *func,
                distinct: *distinct,
                arg: match arg {
                    FuncArg::Star => None,
                    FuncArg::Expr(inner) => Some(Box::new(self.lower(inner, env)?)),
                },
            },
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let lowered = self.lower(expr, env)?;
                let sub = self.hoist(SubKind::InSet, subquery)?;
                CExpr::InProbeRef {
                    expr: Box::new(lowered),
                    sub,
                    negated: *negated,
                }
            }
            Expr::Exists { subquery, negated } => {
                let sub = self.hoist(SubKind::Exists { negated: *negated }, subquery)?;
                CExpr::SubConst { sub }
            }
            Expr::ScalarSubquery(subquery) => {
                let sub = self.hoist(SubKind::Scalar, subquery)?;
                CExpr::SubConst { sub }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let lowered = self.lower(expr, env)?;
                let items = list
                    .iter()
                    .map(|i| self.lower(i, env))
                    .collect::<Result<Vec<_>, _>>()?;
                // All-literal lists (the common generated shape) prebuild
                // their probe at compile time.
                if items.iter().all(|i| matches!(i, CExpr::Const(_))) {
                    let mut probe = InProbe::default();
                    for i in &items {
                        if let CExpr::Const(v) = i {
                            probe.insert(v);
                        }
                    }
                    CExpr::InConstList {
                        expr: Box::new(lowered),
                        probe,
                        negated: *negated,
                    }
                } else {
                    CExpr::InList {
                        expr: Box::new(lowered),
                        list: items,
                        negated: *negated,
                    }
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => CExpr::Between {
                expr: Box::new(self.lower(expr, env)?),
                low: Box::new(self.lower(low, env)?),
                high: Box::new(self.lower(high, env)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => CExpr::Like {
                expr: Box::new(self.lower(expr, env)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => CExpr::IsNull {
                expr: Box::new(self.lower(expr, env)?),
                negated: *negated,
            },
            Expr::Case {
                operand,
                branches,
                else_,
            } => CExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.lower(o, env).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(when, then)| Ok((self.lower(when, env)?, self.lower(then, env)?)))
                    .collect::<Result<Vec<_>, ExecError>>()?,
                else_: else_
                    .as_ref()
                    .map(|e| self.lower(e, env).map(Box::new))
                    .transpose()?,
            },
        })
    }
}

/// Recognizes `ON a.x = b.y` where exactly one side resolves into the
/// already-joined prefix and the other into the freshly joined table.
/// Returns `(left working-set slot, right-table column offset)`.
fn equi_join_plan(on: &Expr, env: &Env, right_start: usize) -> Option<(usize, usize)> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = on
    else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    let ia = env.resolve(a).ok()?;
    let ib = env.resolve(b).ok()?;
    match (ia < right_start, ib < right_start) {
        (true, false) => Some((ia, ib - right_start)),
        (false, true) => Some((ib, ia - right_start)),
        // Both sides on the same side of the boundary: not a binary
        // equi-join over this step — fall back to the nested loop.
        _ => None,
    }
}

fn projection_names(core: &SelectCore, env: &Env) -> Vec<String> {
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

/// Bare (unqualified, lower-case) output column names — the schema a CTE
/// materialized from this core exposes to queries that scan it. Mirrors
/// the reference interpreter's copy; keep the two in sync.
fn bare_projection_names(core: &SelectCore, env: &Env) -> Vec<String> {
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
