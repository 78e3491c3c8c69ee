//! Figure 9: impact of feedback quality — CycleSQL's data-grounded
//! explanations vs the simpler SQL2NL back-translation as the feedback
//! channel, compared on RESDSQL-Large and GPT-3.5-Turbo across the four
//! SPIDER-family benchmarks.

use super::ExperimentContext;
use crate::cycle::{CycleSql, FeedbackKind};
use crate::eval::{evaluate, EvalOptions};
use crate::training::{collect_training_data, CollectConfig};
use cyclesql_benchgen::Split;
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_nli::{NliModel, TrainConfig, TrainedVerifier};
use std::fmt::Write as _;

/// Per-benchmark EX for one model under three configurations.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Model name.
    pub model: String,
    /// Benchmark label (SPIDER / REALISTIC / SYN / DK).
    pub benchmark: String,
    /// Base EX.
    pub base_ex: f64,
    /// EX with CycleSQL (data-grounded feedback).
    pub cyclesql_ex: f64,
    /// EX with the SQL2NL feedback verifier.
    pub sql2nl_ex: f64,
}

cyclesql_obs::impl_to_json! { Fig9Row { model, benchmark, base_ex, cyclesql_ex, sql2nl_ex } }

/// The whole figure's data.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Rows: 2 models × 4 benchmarks.
    pub rows: Vec<Fig9Row>,
}

cyclesql_obs::impl_to_json! { Fig9Result { rows } }

/// Trains a verifier on SQL2NL premises (the comparison feedback channel,
/// same training protocol otherwise).
pub fn train_sql2nl_verifier(ctx: &ExperimentContext) -> TrainedVerifier {
    let error_sources = vec![
        SimulatedModel::new(ModelProfile::smbop()),
        SimulatedModel::new(ModelProfile::resdsql_large()),
        SimulatedModel::new(ModelProfile::gpt35()),
    ];
    let (examples, _) = collect_training_data(
        &ctx.spider,
        &error_sources,
        CollectConfig {
            feedback: FeedbackKind::Sql2Nl,
            ..Default::default()
        },
    );
    let (model, _) = NliModel::train(&examples, TrainConfig::default());
    TrainedVerifier { model }
}

/// Runs the Figure-9 comparison.
pub fn run(ctx: &ExperimentContext) -> Fig9Result {
    let cycle_grounded = ctx.cycle();
    let sql2nl_verifier = train_sql2nl_verifier(ctx);
    let cycle_sql2nl = ctx.cycle_with(sql2nl_verifier, FeedbackKind::Sql2Nl);

    let models = [
        SimulatedModel::new(ModelProfile::resdsql_large()),
        SimulatedModel::new(ModelProfile::gpt35()),
    ];
    let mut rows = Vec::new();
    for model in &models {
        for (label, session) in ctx.spider_family() {
            let eval_with =
                |cycle: &CycleSql| evaluate(model, &EvalOptions::new(session, Split::Dev, cycle));
            let grounded = eval_with(&cycle_grounded);
            let sql2nl = eval_with(&cycle_sql2nl);
            rows.push(Fig9Row {
                model: model.profile.name.to_string(),
                benchmark: label.to_string(),
                base_ex: grounded.base.ex,
                cyclesql_ex: grounded.cycle.ex,
                sql2nl_ex: sql2nl.cycle.ex,
            });
        }
    }
    Fig9Result { rows }
}

impl Fig9Result {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 9: EX (%) with data-grounded vs SQL2NL feedback"
        );
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>8} {:>11} {:>9}",
            "model", "benchmark", "Base", "+CycleSQL", "+SQL2NL"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>8.1} {:>11.1} {:>9.1}",
                r.model, r.benchmark, r.base_ex, r.cyclesql_ex, r.sql2nl_ex
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grounded_feedback_beats_sql2nl_on_average() {
        let ctx = ExperimentContext::shared_quick();
        let f = run(ctx);
        assert_eq!(f.rows.len(), 8);
        let avg =
            |pick: fn(&Fig9Row) -> f64| f.rows.iter().map(pick).sum::<f64>() / f.rows.len() as f64;
        let grounded = avg(|r| r.cyclesql_ex);
        let sql2nl = avg(|r| r.sql2nl_ex);
        assert!(
            grounded >= sql2nl,
            "data-grounded feedback must be the stronger channel: {grounded:.1} vs {sql2nl:.1}"
        );
        // And grounded feedback never falls below base on average.
        assert!(grounded >= avg(|r| r.base_ex));
    }
}
