//! Error operators: realistic AST-level corruptions of a gold query.
//!
//! Simulated translation models build their incorrect beam candidates by
//! applying these operators — the error taxonomy mirrors what real NL2SQL
//! models get wrong: aggregate confusion (the paper's Figure 2), relaxed
//! comparison operators (the error-analysis `>=` vs `=` case), wrong join
//! keys (`friend_id` vs `student_id`), wrong columns, perturbed literals,
//! dropped predicates, flipped negations/orderings, and swapped set ops.

use cyclesql_rng::StdRng;
use cyclesql_sql::{
    AggFunc, BinOp, Expr, FuncArg, JoinType, Literal, Query, QueryBody, SelectItem, SetOp,
};
use cyclesql_storage::Database;

/// The catalogue of error operators, in a stable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorOp {
    /// Swap the aggregate function (`count` → `max` …).
    WrongAggregate,
    /// Replace a plain projection with `count(*)` (the Figure-2 error).
    PlainToCount,
    /// Replace an aggregate projection with its argument column.
    CountToPlain,
    /// Relax or tighten a comparison (`=` → `>=` …).
    RelaxComparison,
    /// Replace a filtered column with a sibling column of the same table.
    WrongColumn,
    /// Perturb a literal (another value from the column, or a scaled number).
    WrongValue,
    /// Drop one WHERE conjunct.
    DropConjunct,
    /// Toggle DISTINCT.
    ToggleDistinct,
    /// Flip the ORDER BY direction.
    FlipOrder,
    /// Change the LIMIT.
    ChangeLimit,
    /// Swap the set operator (INTERSECT → UNION …).
    SwapSetOp,
    /// Use the wrong join key column (same table, different column).
    WrongJoinKey,
    /// Flip IN / NOT IN.
    FlipNegation,
    /// Change the HAVING bound.
    ChangeHavingBound,
    /// Use the wrong join flavor (INNER ↔ LEFT, RIGHT ↔ FULL) — the
    /// retained-rows confusion outer joins invite.
    WrongJoinFlavor,
    /// Scramble a CASE expression: swap the first two WHEN branches, or a
    /// lone branch's THEN with the ELSE.
    WrongCaseBranch,
    /// Drop the WHERE filter inside a `WITH` body, over-widening the
    /// intermediate table the rest of the query reads.
    DropCteFilter,
}

impl ErrorOp {
    /// All operators.
    pub const ALL: [ErrorOp; 17] = [
        ErrorOp::WrongAggregate,
        ErrorOp::PlainToCount,
        ErrorOp::CountToPlain,
        ErrorOp::RelaxComparison,
        ErrorOp::WrongColumn,
        ErrorOp::WrongValue,
        ErrorOp::DropConjunct,
        ErrorOp::ToggleDistinct,
        ErrorOp::FlipOrder,
        ErrorOp::ChangeLimit,
        ErrorOp::SwapSetOp,
        ErrorOp::WrongJoinKey,
        ErrorOp::FlipNegation,
        ErrorOp::ChangeHavingBound,
        ErrorOp::WrongJoinFlavor,
        ErrorOp::WrongCaseBranch,
        ErrorOp::DropCteFilter,
    ];
}

/// Applies `op` to a copy of `query`; returns `None` when inapplicable.
pub fn apply_error_op(
    op: ErrorOp,
    query: &Query,
    db: &Database,
    rng: &mut StdRng,
) -> Option<Query> {
    let mut q = query.clone();
    let applied = match op {
        ErrorOp::WrongAggregate => wrong_aggregate(&mut q, rng),
        ErrorOp::PlainToCount => plain_to_count(&mut q),
        ErrorOp::CountToPlain => count_to_plain(&mut q, db),
        ErrorOp::RelaxComparison => relax_comparison(&mut q, rng),
        ErrorOp::WrongColumn => wrong_column(&mut q, db, rng),
        ErrorOp::WrongValue => wrong_value(&mut q, db, rng),
        ErrorOp::DropConjunct => drop_conjunct(&mut q, rng),
        ErrorOp::ToggleDistinct => {
            let core = q.leading_select_mut();
            core.distinct = !core.distinct;
            true
        }
        ErrorOp::FlipOrder => {
            if q.order_by.is_empty() {
                false
            } else {
                q.order_by[0].order = q.order_by[0].order.reversed();
                true
            }
        }
        ErrorOp::ChangeLimit => match q.limit {
            Some(n) => {
                q.limit = Some(if n == 1 { 3 } else { 1 });
                true
            }
            None => false,
        },
        ErrorOp::SwapSetOp => swap_set_op(&mut q.body),
        ErrorOp::WrongJoinKey => wrong_join_key(&mut q, db, rng),
        ErrorOp::FlipNegation => flip_negation(&mut q),
        ErrorOp::ChangeHavingBound => change_having_bound(&mut q),
        ErrorOp::WrongJoinFlavor => wrong_join_flavor(&mut q),
        ErrorOp::WrongCaseBranch => wrong_case_branch(&mut q),
        ErrorOp::DropCteFilter => drop_cte_filter(&mut q),
    };
    applied.then_some(q)
}

/// Applies a random applicable error operator (tries up to 24 draws).
pub fn apply_random_error(query: &Query, db: &Database, rng: &mut StdRng) -> Option<Query> {
    for _ in 0..24 {
        let op = ErrorOp::ALL[rng.gen_range(0..ErrorOp::ALL.len())];
        if let Some(q) = apply_error_op(op, query, db, rng) {
            return Some(q);
        }
    }
    None
}

fn wrong_aggregate(q: &mut Query, rng: &mut StdRng) -> bool {
    let core = q.leading_select_mut();
    for item in &mut core.projections {
        if let SelectItem::Expr {
            expr: Expr::Agg { func, arg, .. },
            ..
        } = item
        {
            let others: Vec<AggFunc> = AggFunc::ALL
                .into_iter()
                .filter(|f| f != func && !(matches!(arg, FuncArg::Star) && *f != AggFunc::Count))
                .collect();
            if matches!(arg, FuncArg::Star) {
                // count(*) can only become an aggregate over a column; skip
                // here — PlainToCount/CountToPlain cover that direction.
                continue;
            }
            if let Some(&new) = others.first() {
                let pick = others[rng.gen_range(0..others.len())];
                *func = if rng.gen_bool(0.5) { pick } else { new };
                return true;
            }
        }
    }
    false
}

fn plain_to_count(q: &mut Query) -> bool {
    let core = q.leading_select_mut();
    for item in &mut core.projections {
        if let SelectItem::Expr {
            expr: expr @ Expr::Column(_),
            ..
        } = item
        {
            *expr = Expr::Agg {
                func: AggFunc::Count,
                distinct: false,
                arg: FuncArg::Star,
            };
            return true;
        }
    }
    false
}

fn count_to_plain(q: &mut Query, db: &Database) -> bool {
    let table = q.leading_select().from.base.name.clone();
    let core = q.leading_select_mut();
    for item in &mut core.projections {
        if let SelectItem::Expr {
            expr: expr @ Expr::Agg { .. },
            ..
        } = item
        {
            // Replace the aggregate with the first text-ish column of the
            // base table (a plausible model mistake).
            if let Some(schema) = db.schema.table(&table) {
                if let Some(col) = schema.columns.first() {
                    *expr = Expr::col(cyclesql_sql::ColumnRef {
                        table: core.from.base.alias.clone().or(Some(table.clone())),
                        column: col.name.clone(),
                    });
                    return true;
                }
            }
        }
    }
    false
}

fn relax_comparison(q: &mut Query, rng: &mut StdRng) -> bool {
    let core = q.leading_select_mut();
    let Some(w) = &mut core.where_clause else {
        return false;
    };
    relax_in_expr(w, rng)
}

fn relax_in_expr(e: &mut Expr, rng: &mut StdRng) -> bool {
    match e {
        Expr::Binary { op, left, right } => {
            if op.is_comparison()
                && matches!(right.as_ref(), Expr::Literal(_))
                && matches!(left.as_ref(), Expr::Column(_))
            {
                *op = match *op {
                    BinOp::Eq => {
                        if rng.gen_bool(0.5) {
                            BinOp::GtEq
                        } else {
                            BinOp::LtEq
                        }
                    }
                    BinOp::Gt => BinOp::GtEq,
                    BinOp::GtEq => BinOp::Gt,
                    BinOp::Lt => BinOp::LtEq,
                    BinOp::LtEq => BinOp::Lt,
                    BinOp::NotEq => BinOp::Eq,
                    other => other,
                };
                true
            } else {
                relax_in_expr(left, rng) || relax_in_expr(right, rng)
            }
        }
        _ => false,
    }
}

fn sibling_column(db: &Database, table: &str, col: &str) -> Option<String> {
    let schema = db.schema.table(table)?;
    let current = schema.column(col)?;
    schema
        .columns
        .iter()
        .find(|c| c.name != col && c.dtype == current.dtype)
        .map(|c| c.name.clone())
}

fn wrong_column(q: &mut Query, db: &Database, _rng: &mut StdRng) -> bool {
    // Swap the column in the first WHERE comparison to a same-typed sibling.
    let tables: Vec<(String, String)> = q
        .leading_select()
        .from
        .tables()
        .iter()
        .map(|t| (t.visible_name().to_string(), t.name.clone()))
        .collect();
    let core = q.leading_select_mut();
    let Some(w) = &mut core.where_clause else {
        return false;
    };
    let mut swapped = false;
    swap_column_in(w, &tables, db, &mut swapped);
    swapped
}

fn swap_column_in(e: &mut Expr, tables: &[(String, String)], db: &Database, swapped: &mut bool) {
    if *swapped {
        return;
    }
    match e {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            if let (Expr::Column(c), Expr::Literal(_)) = (&mut **left, &**right) {
                let real = match &c.table {
                    Some(t) => tables
                        .iter()
                        .find(|(vis, _)| vis == t)
                        .map(|(_, real)| real.clone())
                        .unwrap_or_else(|| t.clone()),
                    None => tables.first().map(|(_, r)| r.clone()).unwrap_or_default(),
                };
                if let Some(sib) = sibling_column(db, &real, &c.column) {
                    c.column = sib;
                    *swapped = true;
                }
            }
        }
        Expr::Binary { left, right, .. } => {
            swap_column_in(left, tables, db, swapped);
            swap_column_in(right, tables, db, swapped);
        }
        _ => {}
    }
}

fn wrong_value(q: &mut Query, db: &Database, rng: &mut StdRng) -> bool {
    let tables: Vec<String> = q
        .leading_select()
        .from
        .tables()
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let core = q.leading_select_mut();
    let Some(w) = &mut core.where_clause else {
        return false;
    };
    let mut done = false;
    perturb_value_in(w, &tables, db, rng, &mut done);
    done
}

fn perturb_value_in(
    e: &mut Expr,
    tables: &[String],
    db: &Database,
    rng: &mut StdRng,
    done: &mut bool,
) {
    if *done {
        return;
    }
    match e {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            if let (Expr::Column(c), Expr::Literal(lit)) = (&**left, &mut **right) {
                match lit {
                    Literal::Int(n) => {
                        *n = if rng.gen_bool(0.5) {
                            *n * 10
                        } else {
                            (*n / 2).max(1)
                        };
                        *done = true;
                    }
                    Literal::Float(x) => {
                        *x *= if rng.gen_bool(0.5) { 10.0 } else { 0.5 };
                        *done = true;
                    }
                    Literal::Str(s) => {
                        // Another value from the same column, if any differs.
                        for t in tables {
                            if let Some(table) = db.table(t) {
                                if let Some(ci) = table.schema.column_index(&c.column) {
                                    for row in &table.rows {
                                        let v = row[ci].to_string();
                                        if v != *s && !v.is_empty() {
                                            *s = v;
                                            *done = true;
                                            return;
                                        }
                                    }
                                }
                            }
                        }
                        s.push_str(" X");
                        *done = true;
                    }
                    _ => {}
                }
            }
        }
        Expr::Binary { left, right, .. } => {
            perturb_value_in(left, tables, db, rng, done);
            perturb_value_in(right, tables, db, rng, done);
        }
        Expr::InSubquery { subquery, .. } => {
            // Perturb inside the subquery.
            let sub_tables: Vec<String> = subquery
                .leading_select()
                .from
                .tables()
                .iter()
                .map(|t| t.name.clone())
                .collect();
            let core = subquery.leading_select_mut();
            if let Some(w) = &mut core.where_clause {
                perturb_value_in(w, &sub_tables, db, rng, done);
            }
        }
        _ => {}
    }
}

fn drop_conjunct(q: &mut Query, rng: &mut StdRng) -> bool {
    let core = q.leading_select_mut();
    let Some(w) = core.where_clause.take() else {
        return false;
    };
    let mut parts: Vec<Expr> = w.conjuncts().into_iter().cloned().collect();
    if parts.len() < 2 {
        core.where_clause = Some(w);
        return false;
    }
    let drop = rng.gen_range(0..parts.len());
    parts.remove(drop);
    core.where_clause = Expr::from_conjuncts(parts);
    true
}

fn swap_set_op(body: &mut QueryBody) -> bool {
    if let QueryBody::SetOp { op, .. } = body {
        *op = match op {
            SetOp::Intersect => SetOp::Union,
            SetOp::Union => SetOp::Except,
            SetOp::Except => SetOp::Intersect,
        };
        true
    } else {
        false
    }
}

fn wrong_join_key(q: &mut Query, db: &Database, _rng: &mut StdRng) -> bool {
    // Visible-name → real-table map for resolving alias qualifiers.
    let alias_map: Vec<(String, String)> = q
        .leading_select()
        .from
        .tables()
        .iter()
        .map(|t| (t.visible_name().to_string(), t.name.clone()))
        .collect();
    let core = q.leading_select_mut();
    for join in &mut core.from.joins {
        let Some(on) = &mut join.on else { continue };
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = on
        {
            for side in [left, right] {
                if let Expr::Column(c) = &mut **side {
                    let real = match &c.table {
                        Some(t) => alias_map
                            .iter()
                            .find(|(vis, _)| vis == t)
                            .map(|(_, r)| r.clone())
                            .unwrap_or_else(|| t.clone()),
                        None => join.table.name.clone(),
                    };
                    if let Some(sib) = sibling_column(db, &real, &c.column) {
                        c.column = sib;
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn flip_negation(q: &mut Query) -> bool {
    let core = q.leading_select_mut();
    let Some(w) = &mut core.where_clause else {
        return false;
    };
    flip_negation_in(w)
}

fn flip_negation_in(e: &mut Expr) -> bool {
    match e {
        Expr::InSubquery { negated, .. }
        | Expr::InList { negated, .. }
        | Expr::Exists { negated, .. }
        | Expr::Like { negated, .. } => {
            *negated = !*negated;
            true
        }
        Expr::Binary { left, right, .. } => flip_negation_in(left) || flip_negation_in(right),
        _ => false,
    }
}

fn wrong_join_flavor(q: &mut Query) -> bool {
    let core = q.leading_select_mut();
    let Some(join) = core.from.joins.first_mut() else {
        return false;
    };
    // Exhaustive rotation — every flavor has a designated confusion, so a
    // new flavor must pick its wrong twin here.
    join.join_type = match join.join_type {
        JoinType::Inner => JoinType::Left,
        JoinType::Left => JoinType::Inner,
        JoinType::Right => JoinType::Full,
        JoinType::Full => JoinType::Right,
    };
    true
}

fn wrong_case_branch(q: &mut Query) -> bool {
    let core = q.leading_select_mut();
    for item in &mut core.projections {
        if let SelectItem::Expr { expr, .. } = item {
            if corrupt_case_in(expr) {
                return true;
            }
        }
    }
    if let Some(w) = &mut core.where_clause {
        if corrupt_case_in(w) {
            return true;
        }
    }
    false
}

fn corrupt_case_in(e: &mut Expr) -> bool {
    match e {
        Expr::Case {
            branches, else_, ..
        } => {
            if branches.len() >= 2 {
                branches.swap(0, 1);
                true
            } else if let (Some((_, then)), Some(els)) =
                (branches.first_mut(), else_.as_deref_mut())
            {
                std::mem::swap(then, els);
                true
            } else {
                false
            }
        }
        Expr::Binary { left, right, .. } => corrupt_case_in(left) || corrupt_case_in(right),
        Expr::Not(inner) => corrupt_case_in(inner),
        _ => false,
    }
}

fn drop_cte_filter(q: &mut Query) -> bool {
    for cte in &mut q.ctes {
        if cte.query.leading_select_mut().where_clause.take().is_some() {
            return true;
        }
    }
    false
}

fn change_having_bound(q: &mut Query) -> bool {
    let core = q.leading_select_mut();
    let Some(h) = &mut core.having else {
        return false;
    };
    if let Expr::Binary { right, .. } = h {
        if let Expr::Literal(Literal::Int(n)) = &mut **right {
            *n += 2;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_sql::{parse, to_sql};
    use cyclesql_storage::{execute, ColumnDef, DataType, DatabaseSchema, TableSchema, Value};

    fn db() -> Database {
        let mut schema = DatabaseSchema::new("t");
        schema.add_table(TableSchema::new(
            "flight",
            vec![
                ColumnDef::new("flno", DataType::Int),
                ColumnDef::new("aid", DataType::Int),
                ColumnDef::new("origin", DataType::Text),
                ColumnDef::new("destination", DataType::Text),
            ],
        ));
        schema.add_table(TableSchema::new(
            "aircraft",
            vec![
                ColumnDef::new("aid", DataType::Int),
                ColumnDef::new("name", DataType::Text),
            ],
        ));
        let mut d = Database::new(schema);
        d.insert(
            "flight",
            vec![
                Value::Int(7),
                Value::Int(3),
                Value::from("LA"),
                Value::from("Tokyo"),
            ],
        );
        d.insert(
            "flight",
            vec![
                Value::Int(13),
                Value::Int(3),
                Value::from("Boston"),
                Value::from("LA"),
            ],
        );
        d.insert(
            "aircraft",
            vec![Value::Int(3), Value::from("Airbus A340-300")],
        );
        d
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn plain_to_count_reproduces_figure2() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        let wrong = apply_error_op(ErrorOp::PlainToCount, &q, &db(), &mut rng()).unwrap();
        assert!(to_sql(&wrong).contains("count(*)"));
    }

    #[test]
    fn relax_comparison_changes_operator() {
        let q = parse("SELECT flno FROM flight WHERE aid = 3").unwrap();
        let wrong = apply_error_op(ErrorOp::RelaxComparison, &q, &db(), &mut rng()).unwrap();
        let sql = to_sql(&wrong);
        assert!(sql.contains(">=") || sql.contains("<="), "{sql}");
    }

    #[test]
    fn wrong_column_swaps_same_type_sibling() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        let wrong = apply_error_op(ErrorOp::WrongColumn, &q, &db(), &mut rng()).unwrap();
        assert!(
            to_sql(&wrong).contains("destination = 'LA'"),
            "{}",
            to_sql(&wrong)
        );
    }

    #[test]
    fn wrong_join_key_reproduces_error_analysis_case() {
        let q = parse("SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid")
            .unwrap();
        // flight has another Int column (flno) to confuse with aid.
        let wrong = apply_error_op(ErrorOp::WrongJoinKey, &q, &db(), &mut rng()).unwrap();
        let sql = to_sql(&wrong);
        assert!(
            sql.contains("t1.flno = t2.aid") || sql.contains("flno"),
            "{sql}"
        );
    }

    #[test]
    fn wrong_value_replaces_string_with_other_data_value() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        let wrong = apply_error_op(ErrorOp::WrongValue, &q, &db(), &mut rng()).unwrap();
        let sql = to_sql(&wrong);
        assert!(!sql.contains("'LA'"), "{sql}");
    }

    #[test]
    fn drop_conjunct_requires_two() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        assert!(apply_error_op(ErrorOp::DropConjunct, &q, &db(), &mut rng()).is_none());
        let q2 = parse("SELECT flno FROM flight WHERE origin = 'LA' AND aid = 3").unwrap();
        let wrong = apply_error_op(ErrorOp::DropConjunct, &q2, &db(), &mut rng()).unwrap();
        assert_eq!(
            wrong
                .leading_select()
                .where_clause
                .as_ref()
                .unwrap()
                .conjuncts()
                .len(),
            1
        );
    }

    #[test]
    fn swap_set_op_applies_only_to_set_queries() {
        let q = parse("SELECT flno FROM flight").unwrap();
        assert!(apply_error_op(ErrorOp::SwapSetOp, &q, &db(), &mut rng()).is_none());
        let q2 = parse("SELECT flno FROM flight INTERSECT SELECT flno FROM flight").unwrap();
        let wrong = apply_error_op(ErrorOp::SwapSetOp, &q2, &db(), &mut rng()).unwrap();
        assert!(to_sql(&wrong).contains("UNION"));
    }

    #[test]
    fn flip_negation_inverts_in() {
        let q = parse("SELECT flno FROM flight WHERE aid IN (SELECT aid FROM aircraft)").unwrap();
        let wrong = apply_error_op(ErrorOp::FlipNegation, &q, &db(), &mut rng()).unwrap();
        assert!(to_sql(&wrong).contains("NOT IN"));
    }

    #[test]
    fn wrong_join_flavor_rotates_every_flavor() {
        let d = db();
        let cases = [
            ("JOIN", "LEFT JOIN"),
            ("LEFT JOIN", "JOIN"),
            ("RIGHT JOIN", "FULL OUTER JOIN"),
            ("FULL OUTER JOIN", "RIGHT JOIN"),
        ];
        for (from, to) in cases {
            let q = parse(&format!(
                "SELECT flno FROM flight AS T1 {from} aircraft AS T2 ON T1.aid = T2.aid"
            ))
            .unwrap();
            let wrong = apply_error_op(ErrorOp::WrongJoinFlavor, &q, &d, &mut rng()).unwrap();
            assert!(to_sql(&wrong).contains(to), "{from}: {}", to_sql(&wrong));
        }
        let no_join = parse("SELECT flno FROM flight").unwrap();
        assert!(apply_error_op(ErrorOp::WrongJoinFlavor, &no_join, &d, &mut rng()).is_none());
    }

    #[test]
    fn wrong_case_branch_swaps_arms() {
        let d = db();
        let q = parse("SELECT CASE WHEN aid = 3 THEN 'a' WHEN aid = 4 THEN 'b' END FROM flight")
            .unwrap();
        let wrong = apply_error_op(ErrorOp::WrongCaseBranch, &q, &d, &mut rng()).unwrap();
        let sql = to_sql(&wrong);
        assert!(sql.find("'b'").unwrap() < sql.find("'a'").unwrap(), "{sql}");
        // Single branch: THEN and ELSE trade places.
        let q2 = parse("SELECT CASE WHEN aid = 3 THEN 'hit' ELSE 'miss' END FROM flight").unwrap();
        let wrong2 = apply_error_op(ErrorOp::WrongCaseBranch, &q2, &d, &mut rng()).unwrap();
        assert!(
            to_sql(&wrong2).contains("THEN 'miss' ELSE 'hit'"),
            "{}",
            to_sql(&wrong2)
        );
    }

    #[test]
    fn drop_cte_filter_widens_with_body() {
        let d = db();
        let q = parse(
            "WITH la AS (SELECT flno FROM flight WHERE origin = 'LA') SELECT count(*) FROM la",
        )
        .unwrap();
        let wrong = apply_error_op(ErrorOp::DropCteFilter, &q, &d, &mut rng()).unwrap();
        assert!(!to_sql(&wrong).contains("WHERE"), "{}", to_sql(&wrong));
        let plain = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        assert!(apply_error_op(ErrorOp::DropCteFilter, &plain, &d, &mut rng()).is_none());
    }

    #[test]
    fn all_ops_produce_executable_sql_when_applicable() {
        let d = db();
        let queries = [
            "SELECT flno FROM flight WHERE origin = 'LA' AND aid = 3",
            "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'",
            "SELECT max(aid) FROM flight GROUP BY origin HAVING count(*) > 1 ORDER BY max(aid) DESC LIMIT 1",
            "SELECT flno FROM flight INTERSECT SELECT flno FROM flight WHERE aid = 3",
            "SELECT DISTINCT origin FROM flight WHERE aid IN (SELECT aid FROM aircraft)",
            "WITH la AS (SELECT flno, aid FROM flight WHERE origin = 'LA') SELECT count(*) FROM la",
            "SELECT CASE WHEN aid = 3 THEN 'a' ELSE 'b' END FROM flight",
            "SELECT T1.flno FROM flight AS T1 FULL OUTER JOIN aircraft AS T2 ON T1.aid = T2.aid",
            "SELECT T1.flno FROM flight AS T1 RIGHT JOIN aircraft AS T2 ON T1.aid = T2.aid",
        ];
        for sql in queries {
            let q = parse(sql).unwrap();
            for op in ErrorOp::ALL {
                let mut r = rng();
                if let Some(wrong) = apply_error_op(op, &q, &d, &mut r) {
                    let rendered = to_sql(&wrong);
                    let reparsed = parse(&rendered)
                        .unwrap_or_else(|e| panic!("{op:?} on {sql}: unparseable {rendered}: {e}"));
                    execute(&d, &reparsed)
                        .unwrap_or_else(|e| panic!("{op:?} on {sql}: {rendered}: {e}"));
                }
            }
        }
    }

    #[test]
    fn random_error_always_finds_an_op() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        let mut r = rng();
        for _ in 0..20 {
            assert!(apply_random_error(&q, &db(), &mut r).is_some());
        }
    }
}
