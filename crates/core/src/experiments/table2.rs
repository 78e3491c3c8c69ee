//! Table II: execution accuracy on the SPIDER dev split broken down by
//! Spider difficulty level.

use super::ExperimentContext;
use crate::eval::{evaluate, EvalOptions};
use cyclesql_benchgen::Split;
use cyclesql_models::SimulatedModel;
use std::fmt::Write as _;

/// One model's difficulty breakdown, base and +CycleSQL.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Model name.
    pub model: String,
    /// Base EX by difficulty (Easy/Medium/Hard/Extra-Hard).
    pub base: [f64; 4],
    /// +CycleSQL EX by difficulty.
    pub cycle: [f64; 4],
    /// Item counts per bucket.
    pub counts: [usize; 4],
}

cyclesql_obs::impl_to_json! { Table2Row { model, base, cycle, counts } }

/// The whole table.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Rows in model order.
    pub rows: Vec<Table2Row>,
}

cyclesql_obs::impl_to_json! { Table2Result { rows } }

/// Runs Table II.
pub fn run(ctx: &ExperimentContext, models: &[SimulatedModel]) -> Table2Result {
    let cycle = ctx.cycle();
    let rows = models
        .iter()
        .map(|model| {
            let pair = evaluate(model, &EvalOptions::new(&ctx.spider, Split::Dev, &cycle));
            Table2Row {
                model: model.profile.name.to_string(),
                base: pair.base.ex_by_difficulty,
                cycle: pair.cycle.ex_by_difficulty,
                counts: pair.base.counts_by_difficulty,
            }
        })
        .collect();
    Table2Result { rows }
}

impl Table2Result {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table II: execution accuracy (%) by SQL difficulty level"
        );
        let _ = writeln!(
            out,
            "{:<16} {:<10} {:>8} {:>8} {:>8} {:>12}",
            "model", "config", "Easy", "Medium", "Hard", "Extra Hard"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:<10} {:>8.1} {:>8.1} {:>8.1} {:>12.1}",
                r.model, "Base", r.base[0], r.base[1], r.base[2], r.base[3]
            );
            let _ = writeln!(
                out,
                "{:<16} {:<10} {:>8.1} {:>8.1} {:>8.1} {:>12.1}",
                r.model, "+CycleSQL", r.cycle[0], r.cycle[1], r.cycle[2], r.cycle[3]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesql_models::ModelProfile;

    #[test]
    fn difficulty_generally_decreases_accuracy() {
        let ctx = ExperimentContext::shared_quick();
        let models = vec![SimulatedModel::new(ModelProfile::resdsql_3b())];
        let t = run(ctx, &models);
        let r = &t.rows[0];
        // Easy must beat Extra-Hard for a calibrated model.
        assert!(
            r.base[0] > r.base[3],
            "easy {} should beat extra-hard {}",
            r.base[0],
            r.base[3]
        );
        assert_eq!(r.counts.iter().sum::<usize>(), ctx.spider.dev.len());
    }

    #[test]
    fn render_has_all_buckets() {
        let ctx = ExperimentContext::shared_quick();
        let models = vec![SimulatedModel::new(ModelProfile::smbop())];
        let text = run(ctx, &models).render();
        for b in ["Easy", "Medium", "Hard", "Extra Hard"] {
            assert!(text.contains(b));
        }
    }
}
