//! Extension experiment (paper future work §VII): human-in-the-loop
//! feedback. Sweeps the human competence and the uncertainty band and
//! reports accuracy vs escalation cost, next to the autonomous loop and the
//! oracle ceiling.

use super::ExperimentContext;
use crate::cycle::{CycleSql, LoopVerifier};
use crate::eval::{evaluate, EvalOptions};
use crate::human::{HumanPolicy, SimulatedHuman};
use cyclesql_benchgen::Split;
use cyclesql_models::{ModelProfile, SimulatedModel};
use std::fmt::Write as _;
use std::sync::Arc;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct ExtHumanRow {
    /// Human competence (probability of a correct verdict).
    pub competence: f64,
    /// Uncertainty band half-width.
    pub band: f64,
    /// Execution accuracy (%).
    pub ex: f64,
    /// Average escalations per question.
    pub escalations_per_item: f64,
}

cyclesql_obs::impl_to_json! { ExtHumanRow { competence, band, ex, escalations_per_item } }

/// The full extension result.
#[derive(Debug, Clone)]
pub struct ExtHumanResult {
    /// Autonomous CycleSQL EX (no human).
    pub autonomous_ex: f64,
    /// Oracle-verifier EX (ceiling).
    pub oracle_ex: f64,
    /// Sweep rows.
    pub rows: Vec<ExtHumanRow>,
}

cyclesql_obs::impl_to_json! { ExtHumanResult { autonomous_ex, oracle_ex, rows } }

/// Runs the sweep on RESDSQL-3B over the SPIDER dev split.
pub fn run(ctx: &ExperimentContext) -> ExtHumanResult {
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let loop_ex = |cycle: &CycleSql, k: Option<usize>| {
        let opts = EvalOptions {
            k,
            ..EvalOptions::new(&ctx.spider, Split::Dev, cycle)
        };
        evaluate(&model, &opts).cycle.ex
    };
    let autonomous_ex = loop_ex(&ctx.cycle(), None);
    let oracle_ex = loop_ex(&CycleSql::new(LoopVerifier::Oracle), None);

    let n = ctx.spider.dev.len().max(1);
    let mut rows = Vec::new();
    for &competence in &[0.7, 0.85, 0.95, 1.0] {
        for &band in &[0.15, 0.35] {
            let human = SimulatedHuman {
                competence,
                seed: 0xB0A7,
            };
            let policy = Arc::new(HumanPolicy::new(human, ctx.verifier.model.threshold, band));
            let cycle = CycleSql {
                policy: policy.clone(),
                ..ctx.cycle()
            };
            let ex = loop_ex(&cycle, Some(8));
            rows.push(ExtHumanRow {
                competence,
                band,
                ex,
                escalations_per_item: policy.escalations() as f64 / n as f64,
            });
        }
    }
    ExtHumanResult {
        autonomous_ex,
        oracle_ex,
        rows,
    }
}

impl ExtHumanResult {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Extension: human-in-the-loop feedback (RESDSQL_3B, SPIDER dev)"
        );
        let _ = writeln!(
            out,
            "autonomous CycleSQL EX = {:.1}%, oracle ceiling = {:.1}%",
            self.autonomous_ex, self.oracle_ex
        );
        let _ = writeln!(
            out,
            "{:>11} {:>6} {:>8} {:>18}",
            "competence", "band", "EX", "escalations/item"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>11.2} {:>6.2} {:>8.1} {:>18.2}",
                r.competence, r.band, r.ex, r.escalations_per_item
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn competent_humans_close_part_of_the_oracle_gap() {
        let ctx = ExperimentContext::shared_quick();
        let r = run(ctx);
        // The perfect-human wide-band point dominates the autonomous loop.
        let best = r
            .rows
            .iter()
            .filter(|row| row.competence >= 1.0)
            .map(|row| row.ex)
            .fold(0.0f64, f64::max);
        assert!(
            best >= r.autonomous_ex,
            "perfect human must not hurt: {best} vs {}",
            r.autonomous_ex
        );
        // Nothing exceeds the oracle.
        for row in &r.rows {
            assert!(
                row.ex <= r.oracle_ex + 1e-9,
                "{row:?} above oracle {}",
                r.oracle_ex
            );
        }
    }

    #[test]
    fn wider_bands_escalate_more() {
        let ctx = ExperimentContext::shared_quick();
        let r = run(ctx);
        let narrow: f64 = r
            .rows
            .iter()
            .filter(|row| row.band < 0.2)
            .map(|row| row.escalations_per_item)
            .sum();
        let wide: f64 = r
            .rows
            .iter()
            .filter(|row| row.band > 0.2)
            .map(|row| row.escalations_per_item)
            .sum();
        assert!(wide >= narrow, "wide {wide} vs narrow {narrow}");
    }
}
