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

use crate::cycle::AcceptPolicy;
use cyclesql_nli::Verdict;
use cyclesql_rng::fnv1a;
use cyclesql_storage::ResultSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A human (or stand-in) judging whether an explanation matches a question.
pub trait HumanJudge: Send + Sync {
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
        let h = fnv1a(question.as_bytes()) ^ fnv1a(explanation.as_bytes()) ^ self.seed;
        let roll = (h % 10_000) as f64 / 10_000.0;
        if roll < self.competence {
            actually_correct
        } else {
            !actually_correct
        }
    }
}

/// The interactive accept policy: verifier first, human on uncertainty.
/// A verdict whose score lies within `band` of the verifier's threshold is
/// escalated to the human, who is told the candidate is actually correct
/// iff its result bag-equals the gold's; any other verdict stands.
///
/// Plug it in as [`crate::CycleSql::policy`]. The policy counts its
/// escalations across every run (and worker thread) that uses it.
#[derive(Debug)]
pub struct HumanPolicy<H> {
    human: H,
    threshold: f64,
    band: f64,
    escalations: AtomicUsize,
}

impl<H: HumanJudge> HumanPolicy<H> {
    /// A policy escalating verdicts with `|score − threshold| < band`;
    /// `threshold` is the loop verifier's decision threshold.
    pub fn new(human: H, threshold: f64, band: f64) -> Self {
        HumanPolicy {
            human,
            threshold,
            band,
            escalations: AtomicUsize::new(0),
        }
    }

    /// Verdicts escalated to the human so far.
    pub fn escalations(&self) -> usize {
        self.escalations.load(Ordering::Relaxed)
    }
}

impl<H: HumanJudge> AcceptPolicy for HumanPolicy<H> {
    fn accept(
        &self,
        question: &str,
        explanation: &str,
        verdict: Verdict,
        result: &ResultSet,
        gold: Option<&ResultSet>,
    ) -> bool {
        if (verdict.score - self.threshold).abs() >= self.band {
            return verdict.entails;
        }
        self.escalations.fetch_add(1, Ordering::Relaxed);
        let actually_correct = gold.is_some_and(|g| result.bag_eq(g));
        self.human.judge(question, explanation, actually_correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CycleSql, RunControls};
    use crate::eval::{evaluate, EvalOptions, Parallelism};
    use crate::experiments::ExperimentContext;
    use crate::metrics::ex_correct;
    use cyclesql_benchgen::Split;
    use cyclesql_models::{ModelProfile, PreparedCandidate, SimulatedModel, TranslationRequest};
    use std::sync::Arc;

    /// The trained loop under a simulated-human policy, and the policy.
    fn human_loop(
        ctx: &ExperimentContext,
        band: f64,
        competence: f64,
        seed: u64,
    ) -> (CycleSql, Arc<HumanPolicy<SimulatedHuman>>) {
        let human = SimulatedHuman { competence, seed };
        let policy = Arc::new(HumanPolicy::new(human, ctx.verifier.model.threshold, band));
        let cycle = CycleSql {
            policy: policy.clone(),
            ..ctx.cycle()
        };
        (cycle, policy)
    }

    /// EX and escalations per item of the human-policy loop at k = 8 over
    /// the Spider dev split.
    fn accuracy_with(ctx: &ExperimentContext, band: f64, competence: f64) -> (f64, f64) {
        let (cycle, policy) = human_loop(ctx, band, competence, 0xBEE);
        let ex = evaluate(
            &SimulatedModel::new(ModelProfile::resdsql_3b()),
            &spider_dev(ctx, &cycle, Parallelism::Auto),
        )
        .cycle
        .ex;
        (
            ex,
            policy.escalations() as f64 / ctx.spider.dev.len() as f64,
        )
    }

    /// A CycleSQL pass at k = 8 over the Spider dev split, without TS.
    fn spider_dev<'a>(
        ctx: &'a ExperimentContext,
        cycle: &'a CycleSql,
        parallelism: Parallelism,
    ) -> EvalOptions<'a> {
        EvalOptions {
            k: Some(8),
            parallelism,
            ..EvalOptions::new(&ctx.spider, Split::Dev, cycle)
        }
    }

    #[test]
    fn perfect_human_beats_autonomous_loop() {
        let ctx = ExperimentContext::shared_quick();
        let (with_human, escalations) = accuracy_with(ctx, 0.35, 1.0);
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let cycle = ctx.cycle();
        let auto = evaluate(&model, &EvalOptions::new(&ctx.spider, Split::Dev, &cycle)).cycle;
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
        let (loop_, _) = human_loop(ctx, f64::INFINITY, 1.0, 0xBEE);
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
            let gold = prep.gold.as_ref();
            let gold_result = prep.gold_result();
            let pulled = Cell::new(0usize);
            let beam = model
                .beam(&req, gold)
                .inspect(|_| pulled.set(pulled.get() + 1));
            let out = loop_.run_prepared(item, db, beam, gold_result);
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

    /// Item `idx`'s k = 8 beam on the Spider dev split, fully drawn.
    fn spider_beam(
        ctx: &ExperimentContext,
        model: &SimulatedModel,
        idx: usize,
    ) -> Vec<PreparedCandidate> {
        let item = &ctx.spider.dev[idx];
        let req = TranslationRequest {
            item,
            db: ctx.spider.database(item),
            k: 8,
            severity: 0.0,
            science: false,
        };
        let prep = ctx.spider.prepared_item(Split::Dev, idx);
        model.beam(&req, prep.gold.as_ref()).collect()
    }

    /// The spans under `parent` as nested names, children in creation
    /// order: `serve(cycle(execute(),provenance(),..),..)`.
    fn span_tree(records: &[cyclesql_obs::SpanRecord], parent: Option<u64>) -> String {
        let mut kids: Vec<_> = records.iter().filter(|r| r.parent_id == parent).collect();
        kids.sort_by_key(|r| r.span_id);
        kids.iter()
            .map(|r| format!("{}({})", r.name, span_tree(records, Some(r.span_id))))
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn interactive_runs_emit_the_loop_span_tree() {
        use cyclesql_obs::{MemorySink, ObsCounters, SpanCtx, SpanSink, Tracer};
        let ctx = ExperimentContext::shared_quick();
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let traced = |cycle: &CycleSql, idx: usize, cands: &[PreparedCandidate]| {
            let item = &ctx.spider.dev[idx];
            let gold = ctx.spider.prepared_item(Split::Dev, idx).gold_result();
            let counters = Arc::new(ObsCounters::default());
            let sink = Arc::new(MemorySink::new(256, Arc::clone(&counters)));
            let tracer = Tracer::new(sink.clone() as Arc<dyn SpanSink>, counters);
            let out = {
                let root = tracer.root("serve");
                let controls = RunControls {
                    span: SpanCtx::of(&root),
                    ..RunControls::default()
                };
                let db = ctx.spider.database(item);
                cycle.run_controlled(item, db, cands, gold, &controls)
            };
            (out.iterations, span_tree(&sink.records(), None))
        };
        let default = ctx.cycle();
        let (interactive, policy) = human_loop(ctx, 0.35, 1.0, 0xBEE);
        let mut escalated_and_compared = 0usize;
        for idx in 0..ctx.spider.dev.len() {
            let cands = spider_beam(ctx, &model, idx);
            let before = policy.escalations();
            let (auto_iterations, auto_tree) = traced(&default, idx, &cands);
            let (human_iterations, human_tree) = traced(&interactive, idx, &cands);
            assert!(
                human_tree.starts_with("serve(cycle(execute("),
                "{human_tree}"
            );
            // Runs that examine the same candidates trace the same tree.
            if auto_iterations == human_iterations {
                assert_eq!(human_tree, auto_tree, "item {idx}");
                escalated_and_compared += usize::from(policy.escalations() > before);
            }
        }
        assert!(
            escalated_and_compared > 0,
            "some escalated run was compared"
        );
    }

    #[test]
    fn escalation_tally_is_independent_of_parallelism() {
        let ctx = ExperimentContext::shared_quick();
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let tally = |parallelism| {
            let (cycle, policy) = human_loop(ctx, 0.35, 0.85, 0xB0A7);
            let result = evaluate(&model, &spider_dev(ctx, &cycle, parallelism)).cycle;
            (result, policy.escalations())
        };
        let (sequential, seq_escalations) = tally(Parallelism::Sequential);
        let (auto, auto_escalations) = tally(Parallelism::Auto);
        assert!(seq_escalations > 0);
        assert_eq!(seq_escalations, auto_escalations);
        assert!(sequential.same_outcomes(&auto));
    }

    #[test]
    fn zero_band_policy_takes_every_verdict() {
        let ctx = ExperimentContext::shared_quick();
        let model = SimulatedModel::new(ModelProfile::resdsql_3b());
        let default = ctx.cycle();
        let (interactive, policy) = human_loop(ctx, 0.0, 0.0, 1);
        for (idx, item) in ctx.spider.dev.iter().enumerate() {
            let db = ctx.spider.database(item);
            let gold = ctx.spider.prepared_item(Split::Dev, idx).gold_result();
            let cands = spider_beam(ctx, &model, idx);
            let a = default.run_prepared(item, db, &cands, gold);
            let b = interactive.run_prepared(item, db, &cands, gold);
            assert_eq!(a.chosen_sql, b.chosen_sql, "{}", item.id);
            assert_eq!(a.iterations, b.iterations, "{}", item.id);
            assert_eq!(a.accepted, b.accepted, "{}", item.id);
            assert_eq!(
                a.explanation.as_ref().map(|e| &e.text),
                b.explanation.as_ref().map(|e| &e.text),
                "{}",
                item.id
            );
            assert_eq!(a.chosen_ast, b.chosen_ast, "{}", item.id);
            assert_eq!(a.chosen_result, b.chosen_result, "{}", item.id);
            assert_eq!(a.timed_out, b.timed_out, "{}", item.id);
        }
        assert_eq!(policy.escalations(), 0);
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
