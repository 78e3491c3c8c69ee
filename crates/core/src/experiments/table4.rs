//! Table IV: the case study — five representative queries on the
//! `world_1`-like database with their executed SQL, to-explained result,
//! and the CycleSQL-generated (and polished) NL explanation.

use super::ExperimentContext;
use cyclesql_benchgen::{BenchmarkItem, Split};
use cyclesql_explain::{generate_explanation, polish};
use cyclesql_provenance::track_provenance;
use std::fmt::Write as _;

/// One case-study entry.
#[derive(Debug, Clone)]
pub struct CaseStudyEntry {
    /// Query label (Q1…Q5).
    pub label: String,
    /// The NL question.
    pub question: String,
    /// The executed SQL.
    pub sql: String,
    /// The to-explained query result (first row, rendered).
    pub result: String,
    /// The raw rule-generated explanation.
    pub explanation: String,
    /// The polished explanation shown to users.
    pub polished: String,
}

cyclesql_obs::impl_to_json! {
    CaseStudyEntry {
        label, question, sql, result, explanation, polished
    }
}

/// The case study.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// Five entries covering the paper's structural spread.
    pub entries: Vec<CaseStudyEntry>,
}

cyclesql_obs::impl_to_json! { Table4Result { entries } }

/// Picks the five structural classes of the paper's Table IV: a count over
/// a join (Q1), a simple lookup (Q2), an INTERSECT (Q3), a negated nested
/// query (Q4), and a GROUP BY + HAVING (Q5).
const CASE_TEMPLATES: [(&str, &str); 5] = [
    ("Q1", "detail_count"),
    ("Q2", "lookup_num"),
    ("Q3", "intersect"),
    ("Q4", "not_in_subquery"),
    ("Q5", "group_having"),
];

/// Runs the case study against the world database of the dev split.
pub fn run(ctx: &ExperimentContext) -> Table4Result {
    let mut entries = Vec::new();
    for (label, template) in CASE_TEMPLATES {
        let Some((idx, item)) = ctx
            .spider
            .dev
            .iter()
            .enumerate()
            .find(|(_, i)| i.db_name == "world_1" && i.template == template)
        else {
            continue;
        };
        if let Some(entry) = explain_item(ctx, idx, item, label) {
            entries.push(entry);
        }
    }
    Table4Result { entries }
}

fn explain_item(
    ctx: &ExperimentContext,
    idx: usize,
    item: &BenchmarkItem,
    label: &str,
) -> Option<CaseStudyEntry> {
    let db = ctx.spider.database(item);
    // The gold AST and result come out of the session's prepared artifacts.
    let prep = ctx.spider.prepared_item(Split::Dev, idx);
    let query = prep.gold_ast()?;
    let result = prep.gold_result()?;
    let prov = track_provenance(db, query, result, 0).ok()?;
    let explanation = generate_explanation(db, query, result, 0, &prov);
    let result_render = match result.rows.first() {
        Some(row) => {
            let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            format!("{} = ({})", result.columns.join(", "), vals.join(", "))
        }
        None => "(empty result)".to_string(),
    };
    Some(CaseStudyEntry {
        label: label.to_string(),
        question: item.question.clone(),
        sql: item.gold_sql.clone(),
        result: result_render,
        polished: polish(&explanation.text),
        explanation: explanation.text,
    })
}

impl Table4Result {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Table IV: case study on the world database");
        for e in &self.entries {
            let _ = writeln!(out, "--- {} ---", e.label);
            let _ = writeln!(out, "NL query     : {}", e.question);
            let _ = writeln!(out, "SQL          : {}", e.sql);
            let _ = writeln!(out, "Result       : {}", e.result);
            let _ = writeln!(out, "Explanation  : {}", e.explanation);
            let _ = writeln!(out, "Polished     : {}", e.polished);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_covers_the_five_structures() {
        let ctx = ExperimentContext::shared_quick();
        let t = run(ctx);
        assert!(
            t.entries.len() >= 4,
            "expected most structural classes: got {:?}",
            t.entries.iter().map(|e| &e.label).collect::<Vec<_>>()
        );
        for e in &t.entries {
            assert!(!e.explanation.is_empty(), "{}: empty explanation", e.label);
            assert!(
                e.explanation.starts_with("The query returns"),
                "{}: missing summary: {}",
                e.label,
                e.explanation
            );
        }
    }

    #[test]
    fn explanations_quote_result_values() {
        let ctx = ExperimentContext::shared_quick();
        let t = run(ctx);
        let q1 = t.entries.iter().find(|e| e.label == "Q1");
        if let Some(q1) = q1 {
            // The count value appears in the explanation text.
            let count = q1
                .result
                .rsplit("= (")
                .next()
                .unwrap()
                .trim_end_matches(')')
                .trim()
                .to_string();
            assert!(
                q1.explanation.contains(&count),
                "{} not in {}",
                count,
                q1.explanation
            );
        }
    }
}
