//! Extension experiment: verifier feature-group ablation — which entailment
//! signals carry the feedback loop (the DESIGN.md ablation commitment, and
//! the paper's future-work note on "fine-grained semantics … during the
//! training of the NLI model").
//!
//! Each run zeroes one feature group at *both* training and inference time,
//! retrains the verifier on the identical collected examples, and measures
//! RESDSQL-3B's EX with the ablated loop.

use super::ExperimentContext;
use crate::cycle::{CycleSql, FeedbackKind, LoopVerifier};
use crate::eval::{evaluate, EvalOptions};
use crate::training::{collect_training_data, CollectConfig};
use cyclesql_benchgen::Split;
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_nli::{MaskedNliVerifier, NliModel, TrainConfig};
use std::fmt::Write as _;

/// The ablated feature groups (indices into the feature vector).
pub fn feature_groups() -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("aggregate agreement (f0-f6)", (0..=6).collect()),
        ("comparison operators (f7-f9)", (7..=9).collect()),
        ("value grounding (f10, f11, f25)", vec![10, 11, 25]),
        (
            "structure: negation/group/order/limit/setop (f12-f19)",
            (12..=19).collect(),
        ),
        ("lexical overlap (f20, f23)", vec![20, 23]),
        ("result sanity (f21, f22, f24)", vec![21, 22, 24]),
        ("no-mismatch indicator (f26)", vec![26]),
    ]
}

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The removed group.
    pub removed: String,
    /// EX with the group removed (%).
    pub ex: f64,
    /// Drop relative to the full verifier (positive = the group mattered).
    pub delta_vs_full: f64,
}

cyclesql_obs::impl_to_json! { AblationRow { removed, ex, delta_vs_full } }

/// The full ablation result.
#[derive(Debug, Clone)]
pub struct ExtAblationResult {
    /// EX with the full feature set.
    pub full_ex: f64,
    /// Base (no loop) EX.
    pub base_ex: f64,
    /// One row per removed group.
    pub rows: Vec<AblationRow>,
}

cyclesql_obs::impl_to_json! { ExtAblationResult { full_ex, base_ex, rows } }

/// Runs the ablation on RESDSQL-3B over the SPIDER dev split.
pub fn run(ctx: &ExperimentContext) -> ExtAblationResult {
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let eval_with =
        |cycle: &CycleSql| evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, cycle));
    let full = eval_with(&ctx.cycle());
    let (base_ex, full_ex) = (full.base.ex, full.cycle.ex);

    // Collect the training examples once; each ablation masks and retrains.
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

    let mut rows = Vec::new();
    for (label, masked) in feature_groups() {
        let mut masked_examples = examples.clone();
        for ex in &mut masked_examples {
            for &i in &masked {
                if i < ex.features.len() {
                    ex.features[i] = 0.0;
                }
            }
        }
        let (nli, _) = NliModel::train(&masked_examples, TrainConfig::default());
        let verifier = MaskedNliVerifier {
            model: nli,
            masked: masked.clone(),
        };
        let cycle = CycleSql::new(LoopVerifier::Custom(Box::new(verifier)));
        let ex = eval_with(&cycle).cycle.ex;
        rows.push(AblationRow {
            removed: label.to_string(),
            ex,
            delta_vs_full: full_ex - ex,
        });
    }
    ExtAblationResult {
        full_ex,
        base_ex,
        rows,
    }
}

impl ExtAblationResult {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Extension: verifier feature-group ablation (RESDSQL_3B, SPIDER dev)"
        );
        let _ = writeln!(
            out,
            "base EX = {:.1}%, full-verifier EX = {:.1}%",
            self.base_ex, self.full_ex
        );
        let _ = writeln!(out, "{:<55} {:>8} {:>8}", "removed group", "EX", "delta");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<55} {:>8.1} {:>+8.1}",
                r.removed, r.ex, -r.delta_vs_full
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_verifier_is_at_least_as_good_as_most_ablations() {
        let ctx = ExperimentContext::shared_quick();
        let r = run(ctx);
        // Ablations can tie (a redundant group) but the majority must not
        // beat the full verifier.
        let better = r
            .rows
            .iter()
            .filter(|row| row.ex > r.full_ex + 1e-9)
            .count();
        assert!(
            better <= r.rows.len() / 2,
            "most ablations should not beat the full feature set: {:?}",
            r.rows
        );
        // Every configuration still includes the loop's fallback, so no
        // ablation can fall catastrophically below base.
        for row in &r.rows {
            assert!(row.ex + 15.0 >= r.base_ex, "{row:?} vs base {}", r.base_ex);
        }
    }

    #[test]
    fn groups_cover_every_feature_except_bias() {
        let mut covered: Vec<usize> = feature_groups().into_iter().flat_map(|(_, g)| g).collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered, (0..=26).collect::<Vec<_>>());
    }
}
