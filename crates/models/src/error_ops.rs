//! Error operators: realistic AST-level corruptions of a gold query.
//!
//! Simulated translation models build their incorrect beam candidates by
//! applying these operators — the error taxonomy mirrors what real NL2SQL
//! models get wrong: aggregate confusion (the paper's Figure 2), relaxed
//! comparison operators (the error-analysis `>=` vs `=` case), wrong join
//! keys (`friend_id` vs `student_id`), wrong columns, perturbed literals,
//! dropped predicates, flipped negations/orderings, and swapped set ops.
//!
//! Every operator mutates its query in place and returns whether it
//! applied. `false` means the query is untouched, so a caller can try
//! operator after operator on one copy and never clones to test one.

use cyclesql_rng::StdRng;
use cyclesql_sql::{
    AggFunc, BinOp, ColumnRef, Expr, FromClause, FuncArg, JoinType, Literal, Query, QueryBody,
    SelectItem, SetOp,
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

/// Applies `op` to `query` in place; returns `false`, leaving `query`
/// untouched, when the operator does not apply.
pub fn apply_error_op(op: ErrorOp, q: &mut Query, db: &Database, rng: &mut StdRng) -> bool {
    match op {
        ErrorOp::WrongAggregate => wrong_aggregate(q, rng),
        ErrorOp::PlainToCount => plain_to_count(q),
        ErrorOp::CountToPlain => count_to_plain(q, db),
        ErrorOp::RelaxComparison => relax_comparison(q, rng),
        ErrorOp::WrongColumn => wrong_column(q, db),
        ErrorOp::WrongValue => wrong_value(q, db, rng),
        ErrorOp::DropConjunct => drop_conjunct(q, rng),
        ErrorOp::ToggleDistinct => {
            let core = q.leading_select_mut();
            core.distinct = !core.distinct;
            true
        }
        ErrorOp::FlipOrder => match q.order_by.first_mut() {
            Some(item) => {
                item.order = item.order.reversed();
                true
            }
            None => false,
        },
        ErrorOp::ChangeLimit => match &mut q.limit {
            Some(n) => {
                *n = if *n == 1 { 3 } else { 1 };
                true
            }
            None => false,
        },
        ErrorOp::SwapSetOp => swap_set_op(&mut q.body),
        ErrorOp::WrongJoinKey => wrong_join_key(q, db),
        ErrorOp::FlipNegation => flip_negation(q),
        ErrorOp::ChangeHavingBound => change_having_bound(q),
        ErrorOp::WrongJoinFlavor => wrong_join_flavor(q),
        ErrorOp::WrongCaseBranch => wrong_case_branch(q),
        ErrorOp::DropCteFilter => drop_cte_filter(q),
    }
}

/// Applies a random applicable error operator to `query` in place (tries
/// up to 24 draws); returns `false`, leaving `query` untouched, when none
/// applied.
pub fn apply_random_error(query: &mut Query, db: &Database, rng: &mut StdRng) -> bool {
    (0..24).any(|_| {
        let op = ErrorOp::ALL[rng.gen_range(0..ErrorOp::ALL.len())];
        apply_error_op(op, query, db, rng)
    })
}

fn wrong_aggregate(q: &mut Query, rng: &mut StdRng) -> bool {
    let core = q.leading_select_mut();
    for item in &mut core.projections {
        if let SelectItem::Expr {
            expr: Expr::Agg { func, arg, .. },
            ..
        } = item
        {
            if matches!(arg, FuncArg::Star) {
                // count(*) can only become an aggregate over a column; skip
                // here — PlainToCount/CountToPlain cover that direction.
                continue;
            }
            let others: Vec<AggFunc> = AggFunc::ALL.into_iter().filter(|f| f != func).collect();
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
    let core = q.leading_select_mut();
    let Some(expr) = core.projections.iter_mut().find_map(|item| match item {
        SelectItem::Expr {
            expr: expr @ Expr::Agg { .. },
            ..
        } => Some(expr),
        _ => None,
    }) else {
        return false;
    };
    // Replace the aggregate with the first column of the base table (a
    // plausible model mistake).
    let base = &core.from.base;
    let Some(col) = db.schema.table(&base.name).and_then(|t| t.columns.first()) else {
        return false;
    };
    *expr = Expr::col(ColumnRef {
        table: Some(base.visible_name().to_string()),
        column: col.name.clone(),
    });
    true
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

/// The real table a column reads: the table its qualifier names in `from`
/// (by alias or by name), else the qualifier itself; `unqualified` when
/// there is none.
fn real_table<'a>(from: &'a FromClause, col: &'a ColumnRef, unqualified: &'a str) -> &'a str {
    match &col.table {
        Some(t) => from
            .tables()
            .into_iter()
            .find(|r| r.visible_name() == t)
            .map_or(t, |r| &r.name),
        None => unqualified,
    }
}

fn wrong_column(q: &mut Query, db: &Database) -> bool {
    // Swap the column in the first WHERE comparison to a same-typed sibling.
    let core = q.leading_select_mut();
    let Some(w) = &mut core.where_clause else {
        return false;
    };
    swap_column_in(w, &core.from, db)
}

fn swap_column_in(e: &mut Expr, from: &FromClause, db: &Database) -> bool {
    match e {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let (Expr::Column(c), Expr::Literal(_)) = (&mut **left, &**right) else {
                return false;
            };
            match sibling_column(db, real_table(from, c, &from.base.name), &c.column) {
                Some(sib) => {
                    c.column = sib;
                    true
                }
                None => false,
            }
        }
        Expr::Binary { left, right, .. } => {
            swap_column_in(left, from, db) || swap_column_in(right, from, db)
        }
        _ => false,
    }
}

fn wrong_value(q: &mut Query, db: &Database, rng: &mut StdRng) -> bool {
    let core = q.leading_select_mut();
    let Some(w) = &mut core.where_clause else {
        return false;
    };
    perturb_value_in(w, &core.from, db, rng)
}

fn perturb_value_in(e: &mut Expr, from: &FromClause, db: &Database, rng: &mut StdRng) -> bool {
    match e {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let (Expr::Column(c), Expr::Literal(lit)) = (&**left, &mut **right) else {
                return false;
            };
            match lit {
                Literal::Int(n) => {
                    *n = if rng.gen_bool(0.5) {
                        *n * 10
                    } else {
                        (*n / 2).max(1)
                    };
                }
                Literal::Float(x) => *x *= if rng.gen_bool(0.5) { 10.0 } else { 0.5 },
                // Another value from the same column, if any differs.
                Literal::Str(s) => match other_value(db, from, &c.column, s) {
                    Some(v) => *s = v,
                    None => s.push_str(" X"),
                },
                _ => return false,
            }
            true
        }
        Expr::Binary { left, right, .. } => {
            perturb_value_in(left, from, db, rng) || perturb_value_in(right, from, db, rng)
        }
        Expr::InSubquery { subquery, .. } => {
            // Perturb inside the subquery.
            let core = subquery.leading_select_mut();
            match &mut core.where_clause {
                Some(w) => perturb_value_in(w, &core.from, db, rng),
                None => false,
            }
        }
        _ => false,
    }
}

/// The first non-empty value of `column`, in `from`'s tables, that differs
/// from `current`.
fn other_value(db: &Database, from: &FromClause, column: &str, current: &str) -> Option<String> {
    from.tables()
        .into_iter()
        .filter_map(|t| db.table(&t.name))
        .find_map(|table| {
            let ci = table.schema.column_index(column)?;
            table
                .rows
                .iter()
                .map(|row| row[ci].to_string())
                .find(|v| v != current && !v.is_empty())
        })
}

fn drop_conjunct(q: &mut Query, rng: &mut StdRng) -> bool {
    let core = q.leading_select_mut();
    // An AND is exactly a WHERE with at least two conjuncts.
    if !matches!(core.where_clause, Some(Expr::Binary { op: BinOp::And, .. })) {
        return false;
    }
    let mut parts = Vec::new();
    if let Some(w) = core.where_clause.take() {
        split_conjuncts(w, &mut parts);
    }
    let drop = rng.gen_range(0..parts.len());
    parts.remove(drop);
    core.where_clause = Expr::from_conjuncts(parts);
    true
}

/// Moves `e`'s top-level conjuncts, in order, onto `out` (the owned
/// [`Expr::conjuncts`]).
fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
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

fn wrong_join_key(q: &mut Query, db: &Database) -> bool {
    // Find the first join-key column with a same-typed sibling, then swap
    // it in.
    let from = &q.leading_select().from;
    let found = from.joins.iter().enumerate().find_map(|(j, join)| {
        let Some(Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        }) = &join.on
        else {
            return None;
        };
        [left, right].into_iter().enumerate().find_map(|(side, e)| {
            let Expr::Column(c) = &**e else { return None };
            let sib = sibling_column(db, real_table(from, c, &join.table.name), &c.column)?;
            Some((j, side, sib))
        })
    });
    let Some((j, side, sib)) = found else {
        return false;
    };
    if let Some(Expr::Binary { left, right, .. }) = &mut q.leading_select_mut().from.joins[j].on {
        let key = if side == 0 { left } else { right };
        if let Expr::Column(c) = &mut **key {
            c.column = sib;
        }
    }
    true
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
    use cyclesql_benchgen::{build_science_suite, build_spider_suite, SuiteConfig, Variant};
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

    /// `op` applied to a copy of `q`, or `None` when it does not apply (the
    /// copy is then checked to be untouched).
    fn applied(op: ErrorOp, q: &Query, d: &Database) -> Option<Query> {
        let mut wrong = q.clone();
        if apply_error_op(op, &mut wrong, d, &mut rng()) {
            Some(wrong)
        } else {
            assert_eq!(&wrong, q, "{op:?} did not apply but changed the query");
            None
        }
    }

    #[test]
    fn plain_to_count_reproduces_figure2() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        let wrong = applied(ErrorOp::PlainToCount, &q, &db()).unwrap();
        assert!(to_sql(&wrong).contains("count(*)"));
    }

    #[test]
    fn relax_comparison_changes_operator() {
        let q = parse("SELECT flno FROM flight WHERE aid = 3").unwrap();
        let wrong = applied(ErrorOp::RelaxComparison, &q, &db()).unwrap();
        let sql = to_sql(&wrong);
        assert!(sql.contains(">=") || sql.contains("<="), "{sql}");
    }

    #[test]
    fn wrong_column_swaps_same_type_sibling() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        let wrong = applied(ErrorOp::WrongColumn, &q, &db()).unwrap();
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
        let wrong = applied(ErrorOp::WrongJoinKey, &q, &db()).unwrap();
        let sql = to_sql(&wrong);
        assert!(
            sql.contains("t1.flno = t2.aid") || sql.contains("flno"),
            "{sql}"
        );
    }

    #[test]
    fn wrong_value_replaces_string_with_other_data_value() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        let wrong = applied(ErrorOp::WrongValue, &q, &db()).unwrap();
        let sql = to_sql(&wrong);
        assert!(!sql.contains("'LA'"), "{sql}");
    }

    #[test]
    fn drop_conjunct_requires_two() {
        let q = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        assert!(applied(ErrorOp::DropConjunct, &q, &db()).is_none());
        let q2 = parse("SELECT flno FROM flight WHERE origin = 'LA' AND aid = 3").unwrap();
        let wrong = applied(ErrorOp::DropConjunct, &q2, &db()).unwrap();
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
        assert!(applied(ErrorOp::SwapSetOp, &q, &db()).is_none());
        let q2 = parse("SELECT flno FROM flight INTERSECT SELECT flno FROM flight").unwrap();
        let wrong = applied(ErrorOp::SwapSetOp, &q2, &db()).unwrap();
        assert!(to_sql(&wrong).contains("UNION"));
    }

    #[test]
    fn flip_negation_inverts_in() {
        let q = parse("SELECT flno FROM flight WHERE aid IN (SELECT aid FROM aircraft)").unwrap();
        let wrong = applied(ErrorOp::FlipNegation, &q, &db()).unwrap();
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
            let wrong = applied(ErrorOp::WrongJoinFlavor, &q, &d).unwrap();
            assert!(to_sql(&wrong).contains(to), "{from}: {}", to_sql(&wrong));
        }
        let no_join = parse("SELECT flno FROM flight").unwrap();
        assert!(applied(ErrorOp::WrongJoinFlavor, &no_join, &d).is_none());
    }

    #[test]
    fn wrong_case_branch_swaps_arms() {
        let d = db();
        let q = parse("SELECT CASE WHEN aid = 3 THEN 'a' WHEN aid = 4 THEN 'b' END FROM flight")
            .unwrap();
        let wrong = applied(ErrorOp::WrongCaseBranch, &q, &d).unwrap();
        let sql = to_sql(&wrong);
        assert!(sql.find("'b'").unwrap() < sql.find("'a'").unwrap(), "{sql}");
        // Single branch: THEN and ELSE trade places.
        let q2 = parse("SELECT CASE WHEN aid = 3 THEN 'hit' ELSE 'miss' END FROM flight").unwrap();
        let wrong2 = applied(ErrorOp::WrongCaseBranch, &q2, &d).unwrap();
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
        let wrong = applied(ErrorOp::DropCteFilter, &q, &d).unwrap();
        assert!(!to_sql(&wrong).contains("WHERE"), "{}", to_sql(&wrong));
        let plain = parse("SELECT flno FROM flight WHERE origin = 'LA'").unwrap();
        assert!(applied(ErrorOp::DropCteFilter, &plain, &d).is_none());
    }

    #[test]
    fn all_ops_produce_executable_sql_when_applicable() {
        // Every operator, under three RNG seeds, on the fixture queries and
        // on the golds of the quick Spider and Science dev splits: one that
        // applies leaves SQL that parses back and runs, and one that does
        // not apply leaves its query exactly as it was.
        let d = db();
        let fixtures = [
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
        let quick = SuiteConfig {
            seed: 0xC1C1E,
            train_per_template: 1,
            eval_per_template: 1,
        };
        let suites = [
            build_spider_suite(Variant::Spider, quick),
            build_science_suite(quick),
        ];
        let mut cases: Vec<(&str, &Database)> = fixtures.iter().map(|sql| (*sql, &d)).collect();
        for suite in &suites {
            cases.extend(
                suite
                    .dev
                    .iter()
                    .map(|i| (i.gold_sql.as_str(), suite.database(i))),
            );
        }
        for (sql, d) in cases {
            let q = parse(sql).unwrap();
            for op in ErrorOp::ALL {
                for seed in [11, 12, 13] {
                    let mut wrong = q.clone();
                    if !apply_error_op(op, &mut wrong, d, &mut StdRng::seed_from_u64(seed)) {
                        assert_eq!(wrong, q, "{op:?} on {sql}: not applied, yet changed");
                        continue;
                    }
                    let rendered = to_sql(&wrong);
                    let reparsed = parse(&rendered)
                        .unwrap_or_else(|e| panic!("{op:?} on {sql}: unparseable {rendered}: {e}"));
                    execute(d, &reparsed)
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
            assert!(apply_random_error(&mut q.clone(), &db(), &mut r));
        }
    }
}
