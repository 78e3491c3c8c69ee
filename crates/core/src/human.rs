//! Human-in-the-loop feedback — the paper's first future-work direction
//! ("close the feedback loop with human involvement").
//!
//! The loop stays autonomous while the verifier is confident; when a
//! verdict falls inside an *uncertainty band* around the decision
//! threshold, the explanation is escalated to a human, whose accept/reject
//! verdict overrides the model's. Humans read exactly what users of an
//! NLIDB would read: the question and the data-grounded explanation.
//!
//! Since no humans are available in a reproduction, [`SimulatedHuman`]
//! stands in: a judge that returns the correct verdict with a configurable
//! competence and errs deterministically otherwise (substitution documented
//! in DESIGN.md).

use cyclesql_benchgen::BenchmarkItem;
use cyclesql_explain::generate_explanation;
use cyclesql_models::PreparedCandidate;
use cyclesql_nli::{Hypothesis, TrainedVerifier, Verifier, VerifyInput};
use cyclesql_provenance::track_provenance;
use cyclesql_storage::{Database, ResultSet};
use std::borrow::Borrow;
use std::sync::Arc;

/// A human (or stand-in) judging whether an explanation matches a question.
pub trait HumanJudge {
    /// Returns the human's verdict. `actually_correct` is supplied by the
    /// harness (which owns gold data) so stand-ins can calibrate their error
    /// rate; a real UI implementation ignores it.
    fn judge(&self, question: &str, explanation: &str, actually_correct: bool) -> bool;
}

/// A deterministic simulated participant: agrees with the ground truth with
/// probability `competence`, errs otherwise (hash-seeded, reproducible).
#[derive(Debug, Clone, Copy)]
pub struct SimulatedHuman {
    /// Probability of giving the correct verdict, in `[0, 1]`.
    pub competence: f64,
    /// Seed for the deterministic error pattern.
    pub seed: u64,
}

impl HumanJudge for SimulatedHuman {
    fn judge(&self, question: &str, explanation: &str, actually_correct: bool) -> bool {
        let h = fxhash(question) ^ fxhash(explanation) ^ self.seed;
        let roll = (h % 10_000) as f64 / 10_000.0;
        if roll < self.competence {
            actually_correct
        } else {
            !actually_correct
        }
    }
}

/// Outcome of an interactive loop run.
#[derive(Debug, Clone)]
pub struct InteractiveOutcome {
    /// The selected SQL.
    pub chosen_sql: String,
    /// Candidates examined.
    pub iterations: usize,
    /// How many verdicts were escalated to the human.
    pub escalations: usize,
    /// Whether any candidate was accepted (vs top-1 fallback).
    pub accepted: bool,
    /// The chosen candidate's result on the loop's database, when it ran —
    /// consumers can compute EX without re-executing `chosen_sql`.
    pub chosen_result: Option<Arc<ResultSet>>,
}

/// The interactive CycleSQL variant: verifier first, human on uncertainty.
pub struct InteractiveCycleSql<'a, H: HumanJudge> {
    /// The trained verifier.
    pub verifier: &'a TrainedVerifier,
    /// The human in the loop.
    pub human: &'a H,
    /// Half-width of the uncertainty band around the verifier threshold;
    /// verdicts with `|score − threshold| < band` are escalated.
    pub uncertainty_band: f64,
}

impl<H: HumanJudge> InteractiveCycleSql<'_, H> {
    /// Runs the interactive loop over the inputs of
    /// [`crate::CycleSql::run_prepared`], pulling candidates only as far as
    /// it examines them. Candidates that do not parse, run, or yield
    /// provenance are skipped; an escalated one is actually correct iff its
    /// result bag-equals `gold_result`.
    pub fn run<C: Borrow<PreparedCandidate>>(
        &self,
        item: &BenchmarkItem,
        db: &Database,
        candidates: impl IntoIterator<Item = C>,
        gold_result: Option<&ResultSet>,
    ) -> InteractiveOutcome {
        let mut escalations = 0usize;
        let mut examined = 0usize;
        // The top-1's text and result, for the fallback outcome.
        let mut top1: (String, Option<Arc<ResultSet>>) = Default::default();
        // The question's features, mined at the first verdict.
        let mut hypothesis: Option<Hypothesis> = None;
        for cand in candidates {
            let cand = cand.borrow();
            examined += 1;
            let result = cand.result(db);
            if examined == 1 {
                top1 = (cand.sql.clone(), result.clone());
            }
            let (Some(query), Some(result)) = (cand.ast.as_deref(), result) else {
                continue;
            };
            let Ok(prov) = track_provenance(db, query, &result, 0) else {
                continue;
            };
            let explanation = generate_explanation(db, query, &result, 0, &prov);
            let input = VerifyInput {
                question: &item.question,
                premise_text: &explanation.text,
                facets: &explanation.facets,
                sql: &cand.sql,
            };
            let hyp = hypothesis.get_or_insert_with(|| Hypothesis::new(&item.question));
            let verdict = self.verifier.verify_prepared(hyp, &input);
            let uncertain =
                (verdict.score - self.verifier.model.threshold).abs() < self.uncertainty_band;
            let accept = if uncertain {
                escalations += 1;
                let actually_correct = gold_result.is_some_and(|g| result.bag_eq(g));
                self.human
                    .judge(&item.question, &explanation.text, actually_correct)
            } else {
                verdict.entails
            };
            if accept {
                return InteractiveOutcome {
                    chosen_sql: cand.sql.clone(),
                    iterations: examined,
                    escalations,
                    accepted: true,
                    chosen_result: Some(result),
                };
            }
        }
        let (chosen_sql, chosen_result) = top1;
        InteractiveOutcome {
            chosen_sql,
            iterations: examined,
            escalations,
            accepted: false,
            chosen_result,
        }
    }
}

fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentContext;
    use crate::metrics::ex_correct;
    use cyclesql_benchgen::Split;
    use cyclesql_models::{ModelProfile, SimulatedModel, TranslationRequest};

    fn accuracy_with(ctx: &ExperimentContext, band: f64, competence: f64) -> (f64, f64) {
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let human = SimulatedHuman {
            competence,
            seed: 0xBEE,
        };
        let loop_ = InteractiveCycleSql {
            verifier: &ctx.verifier,
            human: &human,
            uncertainty_band: band,
        };
        let mut correct = 0usize;
        let mut escalation_rate = 0usize;
        let items = &ctx.spider.dev;
        for (idx, item) in items.iter().enumerate() {
            let db = ctx.spider.database(item);
            let req = TranslationRequest {
                item,
                db,
                k: 8,
                severity: 0.0,
                science: false,
            };
            let gold = ctx
                .spider
                .prepared_item(Split::Dev, idx)
                .gold_result
                .as_deref();
            let out = loop_.run(item, db, model.beam(&req, None), gold);
            correct += ex_correct(db, &out.chosen_sql, &item.gold_sql) as usize;
            escalation_rate += out.escalations;
        }
        (
            100.0 * correct as f64 / items.len() as f64,
            escalation_rate as f64 / items.len() as f64,
        )
    }

    #[test]
    fn perfect_human_beats_autonomous_loop() {
        let ctx = ExperimentContext::shared_quick();
        let (with_human, escalations) = accuracy_with(ctx, 0.35, 1.0);
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let cycle = ctx.cycle();
        let (_, auto) = crate::eval::evaluate_pair(
            &model,
            &ctx.spider,
            cyclesql_benchgen::Split::Dev,
            &cycle,
            false,
        );
        assert!(
            with_human >= auto.ex,
            "a perfect human on uncertain verdicts can't hurt: {with_human} vs {}",
            auto.ex
        );
        assert!(escalations > 0.0, "band must trigger escalations");
    }

    #[test]
    fn interactive_loop_pulls_only_the_candidates_it_examines() {
        use std::cell::Cell;
        let ctx = ExperimentContext::shared_quick();
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        // Every verdict is escalated to a perfect human, who accepts
        // exactly the execution-correct candidates.
        let human = SimulatedHuman {
            competence: 1.0,
            seed: 0xBEE,
        };
        let loop_ = InteractiveCycleSql {
            verifier: &ctx.verifier,
            human: &human,
            uncertainty_band: f64::INFINITY,
        };
        let k = 8;
        let (mut later, mut fallbacks) = (0usize, 0usize);
        for (idx, item) in ctx.spider.dev.iter().enumerate() {
            let db = ctx.spider.database(item);
            let req = TranslationRequest {
                item,
                db,
                k,
                severity: 0.0,
                science: false,
            };
            let prep = ctx.spider.prepared_item(Split::Dev, idx);
            let gold = prep.as_prepared_gold();
            let gold_result = prep.gold_result.as_deref();
            let pulled = Cell::new(0usize);
            let beam = model
                .beam(&req, gold.as_ref())
                .inspect(|_| pulled.set(pulled.get() + 1));
            let out = loop_.run(item, db, beam, gold_result);
            if out.accepted {
                // An acceptance at iteration i pulled i candidates.
                assert_eq!(pulled.get(), out.iterations, "{}", item.id);
                later += usize::from(out.iterations > 1);
            } else {
                // Nothing validated: every candidate was pulled.
                assert_eq!((out.iterations, pulled.get()), (k, k), "{}", item.id);
                fallbacks += 1;
            }
            let chosen_is_gold = out
                .chosen_result
                .as_deref()
                .zip(gold_result)
                .is_some_and(|(c, g)| c.bag_eq(g));
            assert_eq!(
                chosen_is_gold,
                ex_correct(db, &out.chosen_sql, &item.gold_sql),
                "{}: the chosen result is the chosen SQL's",
                item.id
            );
        }
        assert!(later > 0, "some acceptance past the top-1");
        assert!(fallbacks > 0, "some run validated nothing");
    }

    #[test]
    fn zero_band_never_escalates() {
        let ctx = ExperimentContext::shared_quick();
        let (_, escalations) = accuracy_with(ctx, 0.0, 1.0);
        assert_eq!(escalations, 0.0);
    }

    #[test]
    fn simulated_human_is_deterministic_and_calibrated() {
        let h = SimulatedHuman {
            competence: 0.8,
            seed: 7,
        };
        let a = h.judge("q1", "e1", true);
        let b = h.judge("q1", "e1", true);
        assert_eq!(a, b);
        // Over many distinct prompts, agreement rate ≈ competence.
        let mut agree = 0usize;
        let n = 2_000;
        for i in 0..n {
            let q = format!("question {i}");
            if h.judge(&q, "explanation", true) {
                agree += 1;
            }
        }
        let rate = agree as f64 / n as f64;
        assert!((rate - 0.8).abs() < 0.05, "calibration off: {rate}");
    }
}
