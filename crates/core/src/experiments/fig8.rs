//! Figure 8: scalability — (a) average CycleSQL iterations per model and
//! (b) inference latency with and without CycleSQL.

use super::ExperimentContext;
use crate::eval::{evaluate, EvalOptions};
use cyclesql_benchgen::Split;
use cyclesql_models::SimulatedModel;
use std::fmt::Write as _;

/// One model's scalability numbers.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Model name.
    pub model: String,
    /// Average loop iterations until acceptance (Figure 8a).
    pub avg_iterations: f64,
    /// Average base-model inference latency in ms.
    pub base_latency_ms: f64,
    /// Average latency with the CycleSQL loop in ms (Figure 8b).
    pub cycle_latency_ms: f64,
    /// Whether the model is excluded from the latency comparison (PICARD's
    /// token-validation web service dominates, as footnote 13 notes).
    pub excluded_from_latency: bool,
}

cyclesql_obs::impl_to_json! {
    Fig8Row {
        model, avg_iterations, base_latency_ms, cycle_latency_ms, excluded_from_latency
    }
}

/// The whole figure's data.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// One row per model.
    pub rows: Vec<Fig8Row>,
}

cyclesql_obs::impl_to_json! { Fig8Result { rows } }

/// Runs the scalability evaluation.
pub fn run(ctx: &ExperimentContext, models: &[SimulatedModel]) -> Fig8Result {
    let cycle = ctx.cycle();
    let rows = models
        .iter()
        .map(|model| {
            let pair = evaluate(model, &EvalOptions::new(&ctx.spider, Split::Dev, &cycle));
            Fig8Row {
                model: model.profile.name.to_string(),
                avg_iterations: pair.cycle.avg_iterations,
                base_latency_ms: pair.base.avg_latency_ms,
                cycle_latency_ms: pair.cycle.avg_latency_ms,
                excluded_from_latency: model.profile.name.starts_with("PICARD"),
            }
        })
        .collect();
    Fig8Result { rows }
}

impl Fig8Result {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Figure 8a: average CycleSQL iterations per model");
        for r in &self.rows {
            let _ = writeln!(out, "  {:<16} {:>5.2}", r.model, r.avg_iterations);
        }
        let _ = writeln!(
            out,
            "Figure 8b: average inference latency (ms), base vs +CycleSQL"
        );
        for r in &self.rows {
            if r.excluded_from_latency {
                let _ = writeln!(out, "  {:<16} (excluded: interactive decoding)", r.model);
            } else {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>9.1} -> {:>9.1}  (+{:.1} ms loop overhead)",
                    r.model,
                    r.base_latency_ms,
                    r.cycle_latency_ms,
                    r.cycle_latency_ms - r.base_latency_ms
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_models::ModelProfile;

    #[test]
    fn iterations_small_for_good_models_larger_for_picard() {
        let ctx = ExperimentContext::shared_quick();
        let models = vec![
            SimulatedModel::new(ModelProfile::resdsql_3b()),
            SimulatedModel::new(ModelProfile::picard()),
        ];
        let f = run(ctx, &models);
        let resdsql = &f.rows[0];
        let picard = &f.rows[1];
        assert!(
            resdsql.avg_iterations < 3.0,
            "RESDSQL should settle in 1-2 iterations: {}",
            resdsql.avg_iterations
        );
        assert!(
            picard.avg_iterations > resdsql.avg_iterations,
            "PICARD ({}) needs more iterations than RESDSQL ({})",
            picard.avg_iterations,
            resdsql.avg_iterations
        );
    }

    #[test]
    fn loop_overhead_is_minimal_relative_to_inference() {
        let ctx = ExperimentContext::shared_quick();
        let models = vec![SimulatedModel::new(ModelProfile::resdsql_3b())];
        let f = run(ctx, &models);
        let r = &f.rows[0];
        let overhead = r.cycle_latency_ms - r.base_latency_ms;
        assert!(overhead >= 0.0);
        assert!(
            overhead < r.base_latency_ms,
            "the paper's claim: loop overhead ({overhead:.1} ms) is small vs inference ({} ms)",
            r.base_latency_ms
        );
    }
}
