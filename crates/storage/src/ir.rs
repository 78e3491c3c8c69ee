//! The resolved intermediate representation produced by [`crate::compile()`].
//!
//! A [`CompiledQuery`] carries everything the run loop needs with all
//! per-row interpretation work hoisted to compile time:
//!
//! - every column reference is a pre-bound working-set **slot** index
//!   (`CExpr::Slot`) — no name resolution after compile;
//! - every uncorrelated subquery is a **prologue step** (`SubPlan`)
//!   executed exactly once per run: `IN (SELECT …)` becomes a prebuilt
//!   [`InProbe`] hash probe, `EXISTS`/scalar subqueries become constants;
//! - table names are **interned** (`tables`), so lineage travels as
//!   `(table-id, row)` pairs internally and is materialized to
//!   [`crate::SourceRef`]s only at the output boundary.
//!
//! Compiling binds *names* against a database schema, not data: the same
//! `CompiledQuery` runs against any database with that schema (the TS
//! metric runs one plan across several data variants), which is why the
//! subquery prologue executes per *run*, not per compile.

use crate::value::{KeyValue, Value};
use cyclesql_sql::{AggFunc, BinOp, JoinType, SetOp, SortOrder};
use std::collections::HashSet;

/// Statistics from one compiled run, for tests and benchmarks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of hoisted subquery plans executed. Each subquery site runs
    /// exactly once per run regardless of the outer row count.
    pub subquery_runs: usize,
    /// Number of CTE bodies materialized. Each `WITH` definition runs
    /// exactly once per run, referenced or not.
    pub cte_runs: usize,
}

/// A prebuilt hash-probe over the values of a subquery result (or constant
/// `IN` list), replicating [`Value::sql_eq`] membership semantics in O(1)
/// per lookup.
///
/// `sql_eq` is type-directed and not an equivalence relation (`Str`-vs-`Str`
/// compares text even when both parse numerically, while every other
/// non-NULL pair compares through `as_f64`), so a single hash set cannot
/// model it. The probe instead keys text verbatim plus three numeric-bits
/// sets partitioned by the *source* type, and each needle type consults
/// exactly the sets `sql_eq` would compare it against.
#[derive(Debug, Default, Clone)]
pub struct InProbe {
    /// Text values, matched verbatim against text needles.
    strs: HashSet<String>,
    /// Presence of `false` / `true` boolean values.
    bools: [bool; 2],
    /// `f64` bits of Int/Float values.
    num_numeric: HashSet<u64>,
    /// `f64` bits of Bool values (0.0 / 1.0).
    num_bool: HashSet<u64>,
    /// `f64` bits of Str values that parse numerically.
    num_str: HashSet<u64>,
}

/// `sql_eq` compares numeric views with `f64 ==`, so `-0.0` matches `0.0`;
/// normalize to one key. NaN never equals anything — callers exclude it.
fn eq_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

impl InProbe {
    /// Adds one haystack value. NULLs are skipped: they never match.
    pub fn insert(&mut self, v: &Value) {
        match v {
            Value::Null => {}
            Value::Str(s) => {
                if let Some(x) = v.as_f64() {
                    if !x.is_nan() {
                        self.num_str.insert(eq_bits(x));
                    }
                }
                self.strs.insert(s.clone());
            }
            Value::Bool(b) => {
                self.bools[*b as usize] = true;
                self.num_bool.insert(eq_bits(if *b { 1.0 } else { 0.0 }));
            }
            Value::Int(_) | Value::Float(_) => {
                if let Some(x) = v.as_f64() {
                    if !x.is_nan() {
                        self.num_numeric.insert(eq_bits(x));
                    }
                }
            }
        }
    }

    /// Whether any inserted value satisfies `needle.sql_eq(value) == Some(true)`.
    pub fn contains(&self, needle: &Value) -> bool {
        let num_match = |x: f64, sets: &[&HashSet<u64>]| -> bool {
            if x.is_nan() {
                return false;
            }
            let bits = eq_bits(x);
            sets.iter().any(|s| s.contains(&bits))
        };
        match needle {
            Value::Null => false,
            Value::Str(s) => {
                // Str-vs-Str is textual; Str-vs-(Int|Float|Bool) is numeric.
                self.strs.contains(s)
                    || needle
                        .as_f64()
                        .is_some_and(|x| num_match(x, &[&self.num_numeric, &self.num_bool]))
            }
            Value::Bool(b) => {
                // Bool-vs-Bool is boolean; Bool-vs-(Int|Float|Str) is numeric.
                self.bools[*b as usize]
                    || num_match(
                        if *b { 1.0 } else { 0.0 },
                        &[&self.num_numeric, &self.num_str],
                    )
            }
            Value::Int(_) | Value::Float(_) => needle
                .as_f64()
                .is_some_and(|x| num_match(x, &[&self.num_numeric, &self.num_bool, &self.num_str])),
        }
    }
}

/// An interned source-tuple reference: `(table-id, row-index)`. Sixteen
/// bytes, `Copy`, hashable — lineage sets and dedup work on these instead
/// of cloned table-name strings.
pub(crate) type SrcId = (u32, usize);

/// A fully resolved expression. Column references are working-set slots;
/// subquery sites point into the prologue table ([`CompiledQuery::subs`]).
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    /// A working-set column, pre-bound to its slot index.
    Slot(usize),
    /// A literal constant.
    Const(Value),
    /// Binary operator.
    Binary {
        op: BinOp,
        left: Box<CExpr>,
        right: Box<CExpr>,
    },
    /// Logical negation (NULL-propagating).
    Not(Box<CExpr>),
    /// Aggregate call; `arg: None` is `COUNT(*)`.
    Agg {
        func: AggFunc,
        distinct: bool,
        arg: Option<Box<CExpr>>,
    },
    /// `expr [NOT] IN (SELECT …)` — membership via the prologue probe.
    InProbeRef {
        expr: Box<CExpr>,
        sub: usize,
        negated: bool,
    },
    /// `EXISTS (…)` / scalar subquery — a prologue-computed constant.
    SubConst { sub: usize },
    /// `expr [NOT] IN (const, …)` with the probe prebuilt at compile time.
    InConstList {
        expr: Box<CExpr>,
        probe: InProbe,
        negated: bool,
    },
    /// `expr [NOT] IN (…)` with at least one non-constant element.
    InList {
        expr: Box<CExpr>,
        list: Vec<CExpr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<CExpr>,
        low: Box<CExpr>,
        high: Box<CExpr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        expr: Box<CExpr>,
        pattern: String,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<CExpr>, negated: bool },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`. Branches evaluate
    /// lazily: the operand (if any) once per row, each WHEN only until the
    /// first match, the matching THEN only, and ELSE only when nothing
    /// matched. A missing ELSE yields NULL.
    Case {
        operand: Option<Box<CExpr>>,
        branches: Vec<(CExpr, CExpr)>,
        else_: Option<Box<CExpr>>,
    },
}

/// One projection item, resolved.
#[derive(Debug, Clone)]
pub(crate) enum CProj {
    /// `*` / `t.*`: copy these working-set slots through.
    Slots(Vec<usize>),
    /// A computed expression.
    Expr(CExpr),
}

/// Join strategy, decided at compile time from the ON shape.
#[derive(Debug, Clone)]
pub(crate) enum JoinStrategy {
    /// Single-equality ON: build a hash index over the right table's key
    /// column and probe with the left working-set slot.
    Hash { left_slot: usize, right_col: usize },
    /// General nested loop with an optional residual predicate.
    Loop { on: Option<CExpr> },
}

/// One compiled join step.
#[derive(Debug, Clone)]
pub(crate) struct CJoin {
    /// Interned id of the joined table (a schema table or a CTE).
    pub table: u32,
    /// Join flavor; [`JoinType::pads`] drives NULL-padding of unmatched
    /// left rows (LEFT/FULL) and unmatched right rows (RIGHT/FULL).
    pub join_type: JoinType,
    /// Number of columns the joined table contributes (for pad rows).
    pub right_width: usize,
    /// Hash or nested-loop execution.
    pub strategy: JoinStrategy,
    /// Display form of the ON condition, for plan rendering.
    pub on_display: Option<String>,
}

/// One compiled SELECT core.
#[derive(Debug, Clone)]
pub(crate) struct CCore {
    /// Interned id of the base table.
    pub base: u32,
    /// Join steps, in FROM order.
    pub joins: Vec<CJoin>,
    /// Compiled WHERE predicate.
    pub filter: Option<CExpr>,
    /// Display form of the WHERE predicate, for plan rendering.
    pub filter_display: Option<String>,
    /// Compiled GROUP BY expressions.
    pub group_by: Vec<CExpr>,
    /// Compiled HAVING predicate.
    pub having: Option<CExpr>,
    /// Whether execution is grouped (explicit GROUP BY, or aggregates in
    /// the projection / HAVING / ORDER BY).
    pub grouped: bool,
    /// Resolved projections.
    pub projections: Vec<CProj>,
    /// Output column display names, precomputed once at compile time and
    /// shared into each run's result without cloning the strings.
    pub columns: std::sync::Arc<[String]>,
    /// Bare (unqualified, lower-case) output column names — the schema a
    /// CTE materialized from this core exposes to the queries that scan it.
    pub bare_columns: Vec<String>,
    /// Compiled ORDER BY key expressions (threaded down from the query so
    /// each set-op branch resolves them in its own environment).
    pub order_exprs: Vec<CExpr>,
    /// SELECT DISTINCT.
    pub distinct: bool,
}

/// A compiled query body: a core or a set-operation tree.
#[derive(Debug, Clone)]
pub(crate) enum CBody {
    /// A single SELECT core (boxed: a core is far larger than a set-op
    /// node, and each is built once per compile).
    Select(Box<CCore>),
    /// A set operation over two bodies.
    SetOp {
        op: SetOp,
        left: Box<CBody>,
        right: Box<CBody>,
    },
}

impl CBody {
    /// Output arity (set-op output takes the left branch's columns).
    pub(crate) fn width(&self) -> usize {
        match self {
            CBody::Select(core) => core.columns.len(),
            CBody::SetOp { left, .. } => left.width(),
        }
    }

    /// The left-most core — the one whose columns name the output.
    pub(crate) fn first_core(&self) -> &CCore {
        match self {
            CBody::Select(core) => core,
            CBody::SetOp { left, .. } => left.first_core(),
        }
    }
}

/// One compiled `WITH` definition: a full subplan plus the bare column
/// names its materialized table exposes. Each CTE materializes exactly
/// once per run, before the subquery prologue, in declaration order.
#[derive(Debug, Clone)]
pub(crate) struct CtePlan {
    /// Declared CTE name (verbatim); shadows schema tables and any
    /// same-named CTE from an enclosing scope.
    pub name: String,
    /// The compiled body (which may carry its own nested CTEs).
    pub plan: CompiledQuery,
    /// Bare output column names, the materialized table's schema.
    pub columns: Vec<String>,
}

/// What a hoisted subquery site needs at run time.
#[derive(Debug, Clone)]
pub(crate) enum SubKind {
    /// `IN (SELECT …)`: build an [`InProbe`] over the first result column.
    InSet,
    /// `EXISTS (…)`: a boolean constant (`negated` folded in).
    Exists { negated: bool },
    /// Scalar subquery: first row/column or NULL.
    Scalar,
}

/// One hoisted uncorrelated subquery: a compiled plan plus how its result
/// is consumed. Executed exactly once per run, in the prologue.
#[derive(Debug, Clone)]
pub(crate) struct SubPlan {
    pub kind: SubKind,
    pub plan: CompiledQuery,
}

/// The result of one prologue step, ready for O(1) per-row consumption.
#[derive(Debug, Clone)]
pub(crate) enum SubResult {
    /// Membership probe for `IN (SELECT …)`.
    Probe(InProbe),
    /// Precomputed constant for `EXISTS` / scalar subqueries.
    Const(Value),
}

/// A query compiled against a database schema: run it with
/// [`CompiledQuery::run`] (any database with the same schema works — the
/// compile binds names, not data).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Interned table names; lineage ids index into this.
    pub(crate) tables: Vec<String>,
    /// `WITH` definitions, materialized once per run (in order, before
    /// the subquery prologue); later bodies may scan earlier ones.
    pub(crate) ctes: Vec<CtePlan>,
    /// Hoisted uncorrelated subqueries, executed once per run.
    pub(crate) subs: Vec<SubPlan>,
    /// The compiled body.
    pub(crate) body: CBody,
    /// ORDER BY directions (key expressions live in each core).
    pub(crate) order_dirs: Vec<SortOrder>,
    /// LIMIT, if any.
    pub(crate) limit: Option<u64>,
}

/// Builds the per-row grouping key used by GROUP BY / DISTINCT / set ops.
pub(crate) fn row_key(values: &[Value]) -> Vec<KeyValue> {
    values.iter().map(Value::key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(2),
            Value::Int(-3),
            Value::Int(80000),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Bool(false),
            Value::Str("2".into()),
            Value::Str("2.0".into()),
            Value::Str("2.5".into()),
            Value::Str("80000".into()),
            Value::Str("abc".into()),
            Value::Str("".into()),
            Value::Str("true".into()),
            Value::Str("1".into()),
            Value::Str("0".into()),
            Value::Str("-0".into()),
        ]
    }

    #[test]
    fn probe_singleton_matches_sql_eq_exactly() {
        // The probe over {b} must answer exactly `a.sql_eq(b) == Some(true)`
        // for every needle/haystack pair — including the non-transitive
        // corners (Str("2") ≠ Str("2.0") but both == Int(2)).
        let samples = sample_values();
        for hay in &samples {
            let mut probe = InProbe::default();
            probe.insert(hay);
            for needle in &samples {
                assert_eq!(
                    probe.contains(needle),
                    needle.sql_eq(hay) == Some(true),
                    "probe({hay:?}).contains({needle:?})"
                );
            }
        }
    }

    #[test]
    fn probe_over_set_is_any_of_members() {
        let samples = sample_values();
        // Insert several haystack values at once; containment must equal the
        // disjunction of pairwise sql_eq.
        let hay = &samples[..];
        let mut probe = InProbe::default();
        for h in hay {
            probe.insert(h);
        }
        for needle in &samples {
            let expect = hay.iter().any(|h| needle.sql_eq(h) == Some(true));
            assert_eq!(probe.contains(needle), expect, "needle {needle:?}");
        }
    }

    #[test]
    fn null_needle_never_matches() {
        let mut probe = InProbe::default();
        probe.insert(&Value::Null);
        probe.insert(&Value::Int(1));
        assert!(!probe.contains(&Value::Null));
    }

    #[test]
    fn negative_zero_matches_zero_under_sql_eq() {
        let mut probe = InProbe::default();
        probe.insert(&Value::Float(-0.0));
        assert!(probe.contains(&Value::Int(0)));
        assert!(probe.contains(&Value::Float(0.0)));
    }
}
