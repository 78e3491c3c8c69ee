//! The "simpler" SQL2NL baseline explainer (Section V-A4, Figure 9).
//!
//! This mirrors the paper's comparison feedback generator: it renders the
//! SQL query directly into NL from the query surface alone — *no provenance,
//! no data grounding*. In the paper this role is played by a prompted LLM;
//! here the same role is played by a template renderer over the AST. The
//! resulting premise lacks data-level semantics, which is exactly the
//! deficiency Figure 9 measures.

use crate::nlg::ExplanationFacets;

/// Deterministic "paraphrase looseness": the paper's SQL2NL feedback is an
/// LLM back-translation that often paraphrases literal values rather than
/// quoting them. We model that by omitting roughly half of the literals,
/// chosen by a stable hash of the condition.
fn paraphrased_away(col: &str, value: &str) -> bool {
    fnv1a_extend(fnv1a(col.as_bytes()), value.as_bytes()).is_multiple_of(2)
}
use cyclesql_rng::{fnv1a, fnv1a_extend};
use cyclesql_sql::{AggFunc, BinOp, ClauseKind, Literal, Query, SetOp, SortOrder, UnitSemantics};
use cyclesql_storage::Database;

/// A back-translated (SQL-only) explanation.
#[derive(Debug, Clone)]
pub struct Sql2NlExplanation {
    /// The rendered NL text.
    pub text: String,
    /// Structured digest — note: carries *no* result values or provenance
    /// witnesses, only query-surface semantics.
    pub facets: ExplanationFacets,
}

impl Sql2NlExplanation {
    /// The NLI premise: text plus SQL (no data, unlike CycleSQL's premise).
    pub fn premise(&self, sql: &str) -> String {
        format!("{} | | {}", self.text, sql)
    }
}

/// Renders a query into a direct NL description.
pub fn sql_to_nl(db: &Database, query: &Query) -> Sql2NlExplanation {
    let core = query.leading_select();
    let mut facets = ExplanationFacets {
        distinct: core.distinct,
        ..Default::default()
    };
    let tables: Vec<String> = core.from.tables().iter().map(|t| t.name.clone()).collect();
    facets.join_tables = tables.clone();
    let subject = tables
        .iter()
        .map(|t| {
            db.schema
                .table(t)
                .map(|s| s.nl_name.clone())
                .unwrap_or_else(|| t.replace('_', " "))
        })
        .collect::<Vec<_>>()
        .join(" and ");

    let mut selects = Vec::new();
    let mut filters = Vec::new();
    let mut tails = Vec::new();

    for unit in cyclesql_sql::decompose(query) {
        match &unit.semantics {
            UnitSemantics::Aggregate { func, column, .. } => {
                let c = column.as_ref().map(|c| c.column.replace('_', " "));
                facets.agg_funcs.push((*func, c.clone()));
                selects.push(match (func, c) {
                    (AggFunc::Count, None) => "the number of entries".to_string(),
                    (AggFunc::Count, Some(c)) => format!("the number of {c}"),
                    (f, Some(c)) => format!("the {} of {c}", agg_word(*f)),
                    (f, None) => format!("the {} value", agg_word(*f)),
                });
            }
            UnitSemantics::Projection { column } => {
                let c = column.column.replace('_', " ");
                facets.projected_columns.push(c.clone());
                selects.push(format!("the {c}"));
            }
            UnitSemantics::ProjectAll { .. } => {
                facets.projected_columns.push("all columns".into());
                selects.push("all information".to_string());
            }
            UnitSemantics::Comparison { column, op, value } => {
                if unit.clause == ClauseKind::Join {
                    continue;
                }
                let c = column.column.replace('_', " ");
                let v = lit(value);
                if paraphrased_away(&c, &v) {
                    // The back-translation paraphrases the value instead of
                    // quoting it — the condition loses its literal.
                    filters.push(format!("there is a condition on the {c}"));
                } else {
                    facets.comparisons.push((c.clone(), *op, v.clone()));
                    if *op == BinOp::NotEq {
                        facets.negations += 1;
                    }
                    filters.push(format!("the {c} is {} {v}", op_word(*op)));
                }
            }
            UnitSemantics::Like {
                column,
                pattern,
                negated,
            } => {
                facets.like_patterns.push(pattern.clone());
                if *negated {
                    facets.negations += 1;
                }
                filters.push(format!(
                    "the {} {} '{}'",
                    column.column.replace('_', " "),
                    if *negated {
                        "does not contain"
                    } else {
                        "contains"
                    },
                    pattern.trim_matches('%')
                ));
            }
            UnitSemantics::Between {
                column,
                low,
                high,
                negated,
            } => {
                let c = column.column.replace('_', " ");
                facets.comparisons.push((c.clone(), BinOp::GtEq, lit(low)));
                facets.comparisons.push((c.clone(), BinOp::LtEq, lit(high)));
                if *negated {
                    facets.negations += 1;
                }
                filters.push(format!("the {c} is between {} and {}", lit(low), lit(high)));
            }
            UnitSemantics::InValues {
                column,
                values,
                negated,
            } => {
                let c = column.column.replace('_', " ");
                let vals: Vec<String> = values.iter().map(lit).collect();
                for v in &vals {
                    facets.comparisons.push((
                        c.clone(),
                        if *negated { BinOp::NotEq } else { BinOp::Eq },
                        v.clone(),
                    ));
                }
                if *negated {
                    facets.negations += 1;
                }
                filters.push(format!("the {c} is one of {}", vals.join(", ")));
            }
            UnitSemantics::SubqueryPredicate {
                column, negated, ..
            } => {
                if *negated {
                    facets.negations += 1;
                }
                let lead = column
                    .as_ref()
                    .map(|c| c.column.replace('_', " "))
                    .unwrap_or_else(|| "the entry".to_string());
                filters.push(format!(
                    "the {lead} {} a nested selection",
                    if *negated {
                        "is excluded by"
                    } else {
                        "matches"
                    }
                ));
            }
            UnitSemantics::HavingCondition {
                func, op, value, ..
            } => {
                let v = lit(value);
                facets.having.push((*func, *op, v.clone()));
                filters.push(format!(
                    "groups where the {} is {} {v}",
                    func.map(|f| f.name()).unwrap_or("value"),
                    op_word(*op)
                ));
            }
            UnitSemantics::GroupKey { column } => {
                let c = column.column.replace('_', " ");
                facets.group_keys.push(c.clone());
                filters.push(format!("for each {c}"));
            }
            UnitSemantics::OrderKey {
                agg, column, order, ..
            } => {
                let key = column
                    .as_ref()
                    .map(|c| c.column.replace('_', " "))
                    .unwrap_or_else(|| "the value".to_string());
                facets.order = Some((key.clone(), *order, *agg));
                tails.push(format!(
                    "ordered by {key} {}",
                    if *order == SortOrder::Desc {
                        "descending"
                    } else {
                        "ascending"
                    }
                ));
            }
            UnitSemantics::RowLimit { n } => {
                facets.limit = Some(*n);
                tails.push(format!("limited to {n}"));
            }
            UnitSemantics::SetOperation { op } => {
                facets.set_op = Some(*op);
                tails.push(
                    match op {
                        SetOp::Union => "taking the union of both parts",
                        SetOp::Intersect => "taking rows in both parts",
                        SetOp::Except => "removing rows in the second part",
                    }
                    .to_string(),
                );
            }
            _ => {}
        }
    }

    let mut text = format!(
        "The query retrieves {} from {subject}",
        if selects.is_empty() {
            "rows".to_string()
        } else {
            selects.join(" and ")
        },
    );
    if !filters.is_empty() {
        text.push_str(&format!(" where {}", filters.join(" and ")));
    }
    if !tails.is_empty() {
        text.push_str(&format!(", {}", tails.join(", ")));
    }
    text.push('.');

    Sql2NlExplanation { text, facets }
}

fn agg_word(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "count",
        AggFunc::Sum => "total",
        AggFunc::Avg => "average",
        AggFunc::Min => "minimum",
        AggFunc::Max => "maximum",
    }
}

fn op_word(op: BinOp) -> &'static str {
    match op {
        BinOp::Eq => "equal to",
        BinOp::NotEq => "different from",
        BinOp::Lt => "below",
        BinOp::LtEq => "at most",
        BinOp::Gt => "above",
        BinOp::GtEq => "at least",
        _ => "related to",
    }
}

fn lit(l: &Literal) -> String {
    match l {
        Literal::Str(s) => s.clone(),
        Literal::Int(n) => n.to_string(),
        Literal::Float(x) => x.to_string(),
        Literal::Bool(b) => if *b { "T" } else { "F" }.to_string(),
        Literal::Null => "NULL".to_string(),
    }
}
