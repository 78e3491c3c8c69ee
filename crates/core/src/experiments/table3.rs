//! Table III: verifier-selection ablation on RESDSQL-3B over the SPIDER dev
//! split — the dedicated trained NLI verifier vs the two strawmen
//! (prompted-LLM, pre-built NLI) and the oracle headroom.

use super::ExperimentContext;
use crate::cycle::{CycleSql, LoopVerifier};
use crate::eval::{evaluate, EvalOptions, EvalResult};
use cyclesql_benchgen::Split;
use cyclesql_models::{ModelProfile, SimulatedModel};
use cyclesql_nli::{LlmStrawmanVerifier, PrebuiltNliVerifier};
use std::fmt::Write as _;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Configuration label.
    pub variant: String,
    /// EM / EX / TS.
    pub em: f64,
    /// Execution accuracy.
    pub ex: f64,
    /// Test-suite accuracy.
    pub ts: f64,
}

cyclesql_obs::impl_to_json! { Table3Row { variant, em, ex, ts } }

/// The whole ablation.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// Rows: base, trained, LLM strawman, pre-built NLI, oracle.
    pub rows: Vec<Table3Row>,
}

cyclesql_obs::impl_to_json! { Table3Result { rows } }

/// Runs the Table III ablation.
pub fn run(ctx: &ExperimentContext) -> Table3Result {
    let model = SimulatedModel::new(ModelProfile::resdsql_3b());
    let eval_with = |cycle: &CycleSql| {
        let opts = EvalOptions::new(&ctx.spider, Split::Dev, cycle);
        evaluate(
            &model,
            &EvalOptions {
                compute_ts: true,
                ..opts
            },
        )
    };
    let trained = eval_with(&ctx.cycle());
    let configs: Vec<(String, EvalResult)> = vec![
        ("Base Model (RESDSQL_3B)".to_string(), trained.base),
        ("+CycleSQL".to_string(), trained.cycle),
        (
            "+CycleSQL (w/ LLM verifier)".to_string(),
            eval_with(&CycleSql::new(LoopVerifier::LlmStrawman(
                LlmStrawmanVerifier,
            )))
            .cycle,
        ),
        (
            "+CycleSQL (w/ pre-built NLI verifier)".to_string(),
            eval_with(&CycleSql::new(LoopVerifier::Prebuilt(PrebuiltNliVerifier))).cycle,
        ),
        (
            "+CycleSQL (w/ oracle verifier)".to_string(),
            eval_with(&CycleSql::new(LoopVerifier::Oracle)).cycle,
        ),
    ];
    Table3Result {
        rows: configs
            .into_iter()
            .map(|(variant, r)| Table3Row {
                variant,
                em: r.em,
                ex: r.ex,
                ts: r.ts,
            })
            .collect(),
    }
}

impl Table3Result {
    /// Plain-text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table III: translation results of different verifier selections"
        );
        let _ = writeln!(
            out,
            "{:<42} {:>6} {:>6} {:>6}",
            "Model Variant", "EM", "EX", "TS"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<42} {:>6.1} {:>6.1} {:>6.1}",
                r.variant, r.em, r.ex, r.ts
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifier_ordering_matches_paper() {
        let ctx = ExperimentContext::shared_quick();
        let t = run(ctx);
        assert_eq!(t.rows.len(), 5);
        let ex = |i: usize| t.rows[i].ex;
        let (base, trained, _llm, prebuilt, oracle) = (ex(0), ex(1), ex(2), ex(3), ex(4));
        // The trained verifier improves over base.
        assert!(trained >= base, "trained {trained} vs base {base}");
        // The trained verifier beats both strawmen.
        assert!(
            trained >= prebuilt,
            "trained {trained} vs prebuilt {prebuilt}"
        );
        // Oracle is the ceiling.
        for i in 0..4 {
            assert!(
                oracle >= ex(i),
                "oracle {oracle} must dominate row {i}: {}",
                ex(i)
            );
        }
    }
}
