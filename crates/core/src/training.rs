//! Verifier training pipeline (Section IV-D "Training Data").
//!
//! Positives come from the human-curated gold pairs of the training split:
//! execute the gold SQL, explain a result, pair with the question under the
//! "entailment" label. Negatives come from *erroneous model translations*
//! on the same split: candidates whose execution diverges from the gold
//! (bag semantics) are explained and labeled "contradiction". The resulting
//! label distribution is heavily imbalanced toward negatives — which is why
//! the trainer uses focal loss.
//!
//! Collection consumes a prepared [`EvalSession`]: the gold parse and gold
//! execution per item come from the session's caches. Candidates are drawn
//! from each model's beam only until the item's negatives are full, and
//! each is executed at most once (shared between the error check and the
//! premise build): not at all when it carries the run the simulator
//! validated it with.

use crate::cycle::{premise_from_parts, FeedbackKind};
use crate::session::EvalSession;
use cyclesql_benchgen::Split;
use cyclesql_models::{SimulatedModel, TranslationRequest};
use cyclesql_nli::{Hypothesis, NliModel, TrainConfig, TrainedVerifier, TrainingExample};

/// Configuration for training-set collection.
#[derive(Debug, Clone, Copy)]
pub struct CollectConfig {
    /// Candidates requested per (model, item) when mining negatives.
    pub k: usize,
    /// Cap on negative examples per item (bounds the imbalance).
    pub max_negatives_per_item: usize,
    /// Which feedback channel the premises use.
    pub feedback: FeedbackKind,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            k: 4,
            max_negatives_per_item: 6,
            feedback: FeedbackKind::DataGrounded,
        }
    }
}

/// Collection statistics (for reports and imbalance assertions).
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectStats {
    /// Positive (entailment) examples.
    pub positives: usize,
    /// Negative (contradiction) examples.
    pub negatives: usize,
}

/// Collects verifier training data from a suite's training split using the
/// given models as error sources.
pub fn collect_training_data(
    session: &EvalSession,
    models: &[SimulatedModel],
    config: CollectConfig,
) -> (Vec<TrainingExample>, CollectStats) {
    let mut examples = Vec::new();
    let mut stats = CollectStats::default();
    for (idx, item) in session.suite().train.iter().enumerate() {
        let prep = session.prepared_item(Split::Train, idx);
        let db = session.database(item);
        // The question's features, mined once for all of the item's premises.
        let hyp = Hypothesis::new(&item.question);
        // Positive: the gold translation's explanation entails the question.
        if let Some((text, facets)) = prep
            .gold_ast()
            .and_then(|gold| premise_from_parts(db, gold, prep.gold_result(), config.feedback))
        {
            examples.push(TrainingExample {
                features: hyp.features(&text, &facets),
                entailment: true,
            });
            stats.positives += 1;
        }
        // Negatives: erroneous translations from the baseline models.
        let mut negatives_here = 0usize;
        for model in models {
            let req = TranslationRequest {
                item,
                db,
                k: config.k,
                severity: 0.0,
                science: false,
            };
            let mut beam = model.beam(&req, prep.gold.as_ref());
            while negatives_here < config.max_negatives_per_item {
                let Some(cand) = beam.next() else {
                    break;
                };
                let Some(ast) = cand.ast.as_deref() else {
                    continue;
                };
                let result = cand.result(db);
                let ex = match (prep.gold_result(), result.as_deref()) {
                    (Some(g), Some(c)) => c.bag_eq(g),
                    _ => false,
                };
                if ex {
                    continue; // only erroneous translations become negatives
                }
                if let Some((text, facets)) =
                    premise_from_parts(db, ast, result.as_deref(), config.feedback)
                {
                    examples.push(TrainingExample {
                        features: hyp.features(&text, &facets),
                        entailment: false,
                    });
                    stats.negatives += 1;
                    negatives_here += 1;
                }
            }
        }
    }
    (examples, stats)
}

/// Trains the verifier on a suite's training split (the paper's "fire"
/// configuration; freeze the returned verifier for the variant benchmarks).
pub fn train_verifier(
    session: &EvalSession,
    models: &[SimulatedModel],
    collect: CollectConfig,
    train: TrainConfig,
) -> (TrainedVerifier, CollectStats, Vec<f64>) {
    let (examples, stats) = collect_training_data(session, models, collect);
    let (model, trace) = NliModel::train(&examples, train);
    (TrainedVerifier { model }, stats, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::candidate_premise;
    use crate::experiments::ExperimentContext;
    use cyclesql_benchgen::{build_spider_suite, SuiteConfig, Variant};
    use cyclesql_models::ModelProfile;
    use cyclesql_nli::extract_features;
    use cyclesql_storage::execute;

    fn small_session() -> EvalSession {
        EvalSession::new(build_spider_suite(
            Variant::Spider,
            SuiteConfig {
                seed: 77,
                train_per_template: 1,
                eval_per_template: 1,
            },
        ))
    }

    #[test]
    fn collection_is_imbalanced_toward_negatives() {
        let session = small_session();
        let models = vec![
            SimulatedModel::new(ModelProfile::resdsql_large()),
            SimulatedModel::new(ModelProfile::gpt35()),
        ];
        let (examples, stats) = collect_training_data(&session, &models, CollectConfig::default());
        assert!(stats.positives > 50, "positives {}", stats.positives);
        assert!(
            stats.negatives > stats.positives,
            "the paper's skew: negatives ({}) > positives ({})",
            stats.negatives,
            stats.positives
        );
        assert_eq!(examples.len(), stats.positives + stats.negatives);
    }

    #[test]
    fn trained_verifier_separates_held_out_pairs() {
        let session = small_session();
        let models = vec![SimulatedModel::new(ModelProfile::resdsql_large())];
        let (verifier, _, trace) = train_verifier(
            &session,
            &models,
            CollectConfig::default(),
            TrainConfig::default(),
        );
        assert!(trace.last().unwrap() < &trace[0], "loss decreased");
        // Evaluate on dev gold pairs (all should lean entail) and corrupted
        // pairs (should lean contradict).
        let mut pos_ok = 0usize;
        let mut pos_total = 0usize;
        for item in session.suite().dev.iter().take(40) {
            let db = session.database(item);
            if let Some((text, facets)) =
                candidate_premise(db, &item.gold_sql, FeedbackKind::DataGrounded)
            {
                let features = extract_features(&item.question, &text, &facets);
                pos_total += 1;
                pos_ok += verifier.model.entails(&features) as usize;
            }
        }
        assert!(
            pos_ok as f64 / pos_total as f64 > 0.7,
            "gold entailment recall too low: {pos_ok}/{pos_total}"
        );
    }

    /// The reference collection: every candidate drawn, each executed
    /// afresh.
    fn fresh_execute_reference(
        session: &EvalSession,
        models: &[SimulatedModel],
        config: CollectConfig,
    ) -> Vec<TrainingExample> {
        let mut examples = Vec::new();
        for (idx, item) in session.suite().train.iter().enumerate() {
            let prep = session.prepared_item(Split::Train, idx);
            let db = session.database(item);
            let gold = prep.gold_result();
            let mut push =
                |text: &str, facets: &cyclesql_explain::ExplanationFacets, entailment| {
                    examples.push(TrainingExample {
                        features: extract_features(&item.question, text, facets),
                        entailment,
                    })
                };
            if let Some((text, facets)) = prep
                .gold_ast()
                .and_then(|g| premise_from_parts(db, g, gold, config.feedback))
            {
                push(&text, &facets, true);
            }
            let mut negatives_here = 0usize;
            for model in models {
                let req = TranslationRequest {
                    item,
                    db,
                    k: config.k,
                    severity: 0.0,
                    science: false,
                };
                for cand in model.translate_prepared(&req, prep.gold.as_ref()) {
                    if negatives_here >= config.max_negatives_per_item {
                        break;
                    }
                    let Some(ast) = cand.ast.as_deref() else {
                        continue;
                    };
                    let result = execute(db, ast).ok();
                    if gold.zip(result.as_ref()).is_some_and(|(g, c)| c.bag_eq(g)) {
                        continue;
                    }
                    if let Some((text, facets)) =
                        premise_from_parts(db, ast, result.as_ref(), config.feedback)
                    {
                        push(&text, &facets, false);
                        negatives_here += 1;
                    }
                }
            }
        }
        examples
    }

    #[test]
    fn lazy_collection_matches_fresh_execute_reference() {
        // The quick context's training set, and a tighter negatives cap:
        // the examples, and so the trained weights, are bit-identical.
        let ctx = ExperimentContext::shared_quick();
        let models = [
            SimulatedModel::new(ModelProfile::smbop()),
            SimulatedModel::new(ModelProfile::resdsql_large()),
            SimulatedModel::new(ModelProfile::gpt35()),
        ];
        for cap in [CollectConfig::default().max_negatives_per_item, 2] {
            let config = CollectConfig {
                max_negatives_per_item: cap,
                ..CollectConfig::default()
            };
            let reference = fresh_execute_reference(&ctx.spider, &models, config);
            let (examples, stats) = collect_training_data(&ctx.spider, &models, config);
            assert!(stats.negatives > stats.positives, "cap {cap}");
            assert_eq!(examples.len(), reference.len(), "cap {cap}");
            for (i, (got, want)) in examples.iter().zip(&reference).enumerate() {
                assert_eq!(got.entailment, want.entailment, "cap {cap}, example {i}");
                let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got.features),
                    bits(&want.features),
                    "cap {cap}, example {i}"
                );
            }
        }
    }

    #[test]
    fn prepared_collection_matches_string_path_reference() {
        // Reference implementation: the seed's string-based collection loop.
        let session = small_session();
        let models = vec![SimulatedModel::new(ModelProfile::gpt35())];
        let config = CollectConfig::default();
        let mut ref_stats = CollectStats::default();
        let mut ref_examples = Vec::new();
        for item in &session.suite().train {
            let db = session.database(item);
            if let Some((text, facets)) = candidate_premise(db, &item.gold_sql, config.feedback) {
                ref_examples.push(extract_features(&item.question, &text, &facets));
                ref_stats.positives += 1;
            }
            let mut negatives_here = 0usize;
            for model in &models {
                if negatives_here >= config.max_negatives_per_item {
                    break;
                }
                let req = TranslationRequest {
                    item,
                    db,
                    k: config.k,
                    severity: 0.0,
                    science: false,
                };
                for cand in model.beam(&req, None) {
                    if negatives_here >= config.max_negatives_per_item {
                        break;
                    }
                    if crate::metrics::ex_correct(db, &cand.sql, &item.gold_sql) {
                        continue;
                    }
                    if let Some((text, facets)) = candidate_premise(db, &cand.sql, config.feedback)
                    {
                        ref_examples.push(extract_features(&item.question, &text, &facets));
                        ref_stats.negatives += 1;
                        negatives_here += 1;
                    }
                }
            }
        }
        let (examples, stats) = collect_training_data(&session, &models, config);
        assert_eq!(stats.positives, ref_stats.positives);
        assert_eq!(stats.negatives, ref_stats.negatives);
        assert_eq!(examples.len(), ref_examples.len());
        for (got, want) in examples.iter().zip(&ref_examples) {
            assert_eq!(got.features, *want);
        }
    }
}
