//! Figure 10: the user study — explanation quality ratings for CycleSQL vs
//! the GPT-3.5-style SQL2NL explanations over the five case-study queries.
//!
//! The 20 human participants are replaced by the programmatic rating panel
//! of `cyclesql-explain::quality` (documented substitution): each simulated
//! participant scores both explanations of every query on the study's two
//! dimensions, and preferences are tallied the way the paper reports them
//! ("14 out of 20 participants preferred CycleSQL").

use super::table4;
use super::ExperimentContext;
use cyclesql_benchgen::Split;
use cyclesql_explain::{panel_rating, sql_to_nl, QualityScore, RatingBucket};
use cyclesql_provenance::track_provenance;
use std::fmt::Write as _;

/// Number of simulated study participants (the paper enlisted 20).
pub const PARTICIPANTS: usize = 20;

/// Ratings for one query under both systems.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Query label (Q1…Q5).
    pub query: String,
    /// Panel rating of the CycleSQL explanation.
    pub cyclesql: StudyScore,
    /// Panel rating of the SQL2NL (GPT-3.5 stand-in) explanation.
    pub sql2nl: StudyScore,
}

cyclesql_obs::impl_to_json! { Fig10Row { query, cyclesql, sql2nl } }

/// A serializable quality score.
#[derive(Debug, Clone, Copy)]
pub struct StudyScore {
    /// Query-result interpretability (1–10).
    pub interpretability: f64,
    /// Textual entailment with the NL question (1–10).
    pub entailment: f64,
    /// Overall.
    pub overall: f64,
}

cyclesql_obs::impl_to_json! { StudyScore { interpretability, entailment, overall } }

impl From<QualityScore> for StudyScore {
    fn from(q: QualityScore) -> Self {
        StudyScore {
            interpretability: q.interpretability,
            entailment: q.entailment,
            overall: q.overall,
        }
    }
}

/// The whole study.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Per-query ratings.
    pub rows: Vec<Fig10Row>,
    /// Participants preferring CycleSQL overall (out of [`PARTICIPANTS`]).
    pub prefer_cyclesql: usize,
}

cyclesql_obs::impl_to_json! { Fig10Result { rows, prefer_cyclesql } }

/// Runs the simulated user study.
pub fn run(ctx: &ExperimentContext) -> Fig10Result {
    let cases = table4::run(ctx);
    let mut rows = Vec::new();
    let mut prefer = 0usize;
    for (qi, case) in cases.entries.iter().enumerate() {
        let Some((idx, item)) = ctx
            .spider
            .dev
            .iter()
            .enumerate()
            .find(|(_, i)| i.gold_sql == case.sql && i.db_name == "world_1")
        else {
            continue;
        };
        let db = ctx.spider.database(item);
        // The case SQL is the item's gold, so the session already holds its
        // parsed AST and executed result.
        let prep = ctx.spider.prepared_item(Split::Dev, idx);
        let query = prep.gold_ast().expect("case SQL parses");
        let result = prep.gold_result().expect("case SQL executes");
        let prov = track_provenance(db, query, result, 0).expect("provenance");
        let grounded = cyclesql_explain::generate_explanation(db, query, result, 0, &prov);
        let baseline = sql_to_nl(db, query);

        let seed = 0xF16_u64 + qi as u64;
        let cyclesql_score = panel_rating(
            query,
            &case.polished,
            &grounded.facets,
            true,
            PARTICIPANTS,
            seed,
        );
        let sql2nl_score = panel_rating(
            query,
            &baseline.text,
            &baseline.facets,
            false,
            PARTICIPANTS,
            seed,
        );

        // Per-participant preference: jittered overall comparison.
        for p in 0..PARTICIPANTS {
            // Participants weight the two dimensions very differently;
            // the jitter spread is sized so a minority can plausibly
            // prefer the fluent LLM baseline (the paper saw 14/20).
            let jitter = |s: f64, salt: u64| {
                let h = (seed ^ salt)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(p as u64)
                    .wrapping_mul(0xD6E8FEB86659FD93);
                let r = ((h >> 32) as u32) as f64 / u32::MAX as f64;
                s + (r - 0.5) * 8.0
            };
            if jitter(cyclesql_score.overall, 1) > jitter(sql2nl_score.overall, 2) {
                prefer += 1;
            }
        }
        rows.push(Fig10Row {
            query: case.label.clone(),
            cyclesql: cyclesql_score.into(),
            sql2nl: sql2nl_score.into(),
        });
    }
    let prefer_cyclesql = if rows.is_empty() {
        0
    } else {
        // Average per-query preference, rounded to participants.
        (prefer as f64 / rows.len() as f64).round() as usize
    };
    Fig10Result {
        rows,
        prefer_cyclesql,
    }
}

fn bucket_symbol(overall: f64) -> &'static str {
    let s = QualityScore {
        interpretability: overall,
        entailment: overall,
        overall,
    };
    match s.bucket() {
        RatingBucket::Great => "great",
        RatingBucket::Neutral => "neutral",
        RatingBucket::Bad => "bad",
    }
}

impl Fig10Result {
    /// Plain-text rendering of the study results.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 10: simulated user study ({PARTICIPANTS} participants)"
        );
        let _ = writeln!(
            out,
            "{:<6} {:>12} {:>12} {:>10} | {:>12} {:>12} {:>10}",
            "query", "cyc-interp", "cyc-entail", "cyc-all", "s2n-interp", "s2n-entail", "s2n-all"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:>12.1} {:>12.1} {:>7.1}({}) | {:>12.1} {:>12.1} {:>7.1}({})",
                r.query,
                r.cyclesql.interpretability,
                r.cyclesql.entailment,
                r.cyclesql.overall,
                bucket_symbol(r.cyclesql.overall),
                r.sql2nl.interpretability,
                r.sql2nl.entailment,
                r.sql2nl.overall,
                bucket_symbol(r.sql2nl.overall),
            );
        }
        let _ = writeln!(
            out,
            "{} out of {PARTICIPANTS} simulated participants preferred CycleSQL explanations",
            self.prefer_cyclesql
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclesql_rated_above_sql2nl() {
        let ctx = ExperimentContext::shared_quick();
        let f = run(ctx);
        assert!(!f.rows.is_empty());
        let avg_cyc: f64 =
            f.rows.iter().map(|r| r.cyclesql.overall).sum::<f64>() / f.rows.len() as f64;
        let avg_s2n: f64 =
            f.rows.iter().map(|r| r.sql2nl.overall).sum::<f64>() / f.rows.len() as f64;
        assert!(
            avg_cyc > avg_s2n,
            "CycleSQL explanations must out-rate SQL2NL: {avg_cyc:.1} vs {avg_s2n:.1}"
        );
        // A majority of participants prefer CycleSQL (the paper: 14/20).
        assert!(
            f.prefer_cyclesql > PARTICIPANTS / 2,
            "majority preference expected, got {}",
            f.prefer_cyclesql
        );
    }

    #[test]
    fn study_is_deterministic() {
        let ctx = ExperimentContext::shared_quick();
        let a = run(ctx);
        let b = run(ctx);
        assert_eq!(a.prefer_cyclesql, b.prefer_cyclesql);
        assert_eq!(a.rows.len(), b.rows.len());
    }
}
