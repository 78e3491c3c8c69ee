//! Extension experiment: verifier architecture — the from-scratch linear
//! model (the primary reproduction) vs the one-hidden-layer MLP, trained on
//! the identical focal-loss examples.

use super::ExperimentContext;
use crate::cycle::{CycleSql, FeedbackKind, LoopVerifier};
use crate::eval::{evaluate, EvalOptions};
use crate::training::{collect_training_data, CollectConfig};
use cyclesql_benchgen::Split;
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_nli::{MlpConfig, MlpNli, MlpVerifier, NliModel, TrainConfig};
use std::fmt::Write as _;

/// One architecture's numbers.
#[derive(Debug, Clone)]
pub struct ArchRow {
    /// Architecture label.
    pub arch: String,
    /// Training-set classification accuracy.
    pub train_accuracy: f64,
    /// Loop EX on SPIDER dev with RESDSQL-3B (%).
    pub loop_ex: f64,
}

cyclesql_obs::impl_to_json! { ArchRow { arch, train_accuracy, loop_ex } }

/// The comparison result.
#[derive(Debug, Clone)]
pub struct ExtArchResult {
    /// Base (no loop) EX.
    pub base_ex: f64,
    /// One row per architecture.
    pub rows: Vec<ArchRow>,
}

cyclesql_obs::impl_to_json! { ExtArchResult { base_ex, rows } }

/// Runs the architecture comparison.
pub fn run(ctx: &ExperimentContext) -> ExtArchResult {
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let eval_with =
        |cycle: &CycleSql| evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, cycle));

    let error_sources = vec![
        SimulatedModel::new(ModelProfile::smbop()),
        SimulatedModel::new(ModelProfile::resdsql_large()),
        SimulatedModel::new(ModelProfile::gpt35()),
    ];
    let (examples, _) = collect_training_data(
        &ctx.spider,
        &error_sources,
        CollectConfig {
            feedback: FeedbackKind::DataGrounded,
            ..Default::default()
        },
    );

    let (linear, _) = NliModel::train(&examples, TrainConfig::default());
    let linear_acc = linear.accuracy(&examples);
    let linear_cycle = CycleSql::new(LoopVerifier::Trained(cyclesql_nli::TrainedVerifier {
        model: linear,
    }));
    let linear_pass = eval_with(&linear_cycle);

    let (mlp, _) = MlpNli::train(&examples, MlpConfig::default());
    let mlp_acc = mlp.accuracy(&examples);
    let mlp_cycle = CycleSql::new(LoopVerifier::Custom(Box::new(MlpVerifier { model: mlp })));
    let mlp_ex = eval_with(&mlp_cycle).cycle.ex;

    ExtArchResult {
        base_ex: linear_pass.base.ex,
        rows: vec![
            ArchRow {
                arch: "linear (paper reproduction)".into(),
                train_accuracy: linear_acc,
                loop_ex: linear_pass.cycle.ex,
            },
            ArchRow {
                arch: "MLP (16 hidden, tanh)".into(),
                train_accuracy: mlp_acc,
                loop_ex: mlp_ex,
            },
        ],
    }
}

impl ExtArchResult {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Extension: verifier architecture comparison (RESDSQL_3B, SPIDER dev); base EX = {:.1}%",
            self.base_ex
        );
        let _ = writeln!(
            out,
            "{:<32} {:>12} {:>10}",
            "architecture", "train acc", "loop EX"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<32} {:>11.1}% {:>9.1}%",
                r.arch,
                100.0 * r.train_accuracy,
                r.loop_ex
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_architectures_beat_or_match_base() {
        let ctx = ExperimentContext::shared_quick();
        let r = run(ctx);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!(
                row.loop_ex + 3.0 >= r.base_ex,
                "{}: collapsed below base: {} vs {}",
                row.arch,
                row.loop_ex,
                r.base_ex
            );
            assert!(row.train_accuracy > 0.7, "{}: undertrained", row.arch);
        }
    }
}
